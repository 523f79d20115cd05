"""Backend registry: named executors with declared capabilities.

A :class:`Backend` turns an :class:`ExecutionRequest` (problem + source
object + optional plan + solve options) into values.  Backends register
under a name (``python``, ``numpy``, ``pram`` ship built in; register
your own with :func:`register_backend`) and declare capabilities --
which solver families they run, whether their arithmetic is exact for
object operands, whether they support the batch axis -- which
:func:`resolve_backend` checks before dispatch.

``auto`` resolves to the vectorized NumPy backend for every family,
matching the historical defaults of the per-module solvers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .plan import Plan
from .problem import Problem

__all__ = [
    "BackendCapabilities",
    "Backend",
    "ExecutionRequest",
    "register_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do, checked at dispatch time."""

    families: FrozenSet[str]
    exact: bool  # object operands solved without float coercion
    batch: bool  # supports the batch axis over value vectors
    supports_policy: bool = True


@dataclass
class ExecutionRequest:
    """Everything a backend needs to run one solve."""

    problem: Problem
    source: Any  # the system / recurrence supplying values + operator
    plan: Optional[Plan] = None
    collect_stats: bool = False
    policy: Any = None
    checked: bool = False
    check_sample: Optional[int] = 64
    f_initial: Optional[List[Any]] = None
    max_rounds: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)
    #: Value-independent per-source state a ``Session`` pinned at
    #: construction (Moebius: :class:`~repro.engine.exec_moebius.
    #: PreparedRecurrence`); ``None`` makes the executor derive it.
    prepared: Any = None


class Backend(ABC):
    """A named execution strategy for planned solves."""

    name: str
    capabilities: BackendCapabilities

    @abstractmethod
    def execute(
        self, request: ExecutionRequest
    ) -> Tuple[List[Any], Optional[object], Optional[Plan], Optional[object]]:
        """Run the solve; returns ``(values, stats, plan, metrics)``.

        ``plan`` is the (possibly freshly built) plan for caching, or
        ``None`` when the backend does not plan (PRAM); ``metrics`` is
        a backend-specific extra (the PRAM run metrics).
        """

    def execute_batch(
        self,
        request: ExecutionRequest,
        batch_initial: Sequence[Sequence[Any]],
        f_initial_batch: Optional[Sequence[Sequence[Any]]] = None,
    ) -> Tuple[List[List[Any]], Optional[Plan]]:
        raise NotImplementedError(
            f"backend {self.name!r} does not support batched execution"
        )


class PythonBackend(Backend):
    """Pure-Python reference executors (exact, synchronous-step)."""

    name = "python"
    capabilities = BackendCapabilities(
        families=frozenset({"ordinary", "gir", "moebius"}),
        exact=True,
        batch=False,
    )

    def execute(self, request: ExecutionRequest):
        from . import exec_gir, exec_moebius, exec_ordinary

        family = request.problem.family
        if family == "ordinary":
            plan = request.plan
            if plan is None:
                plan = exec_ordinary.build_plan(
                    request.source, request.problem.fingerprint()
                )
            values, stats = exec_ordinary.execute_python(
                request.source,
                plan,
                collect_stats=request.collect_stats,
                max_rounds=request.max_rounds,
                f_initial=request.f_initial,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
            )
            return values, stats, plan, None
        if family == "gir":
            values, stats, plan = exec_gir.execute(
                request.source,
                request.problem,
                request.plan,
                ordinary_engine="python",
                collect_stats=request.collect_stats,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
                eval_mode=request.options.get("gir_eval", "auto"),
            )
            return values, stats, plan, None
        values, stats, plan = exec_moebius.execute(
            request.source,
            request.problem,
            request.plan,
            backend_name="python",
            path=request.options.get("path", "object"),
            guard=request.options.get("guard", "auto"),
            collect_stats=request.collect_stats,
            policy=request.policy,
            checked=request.checked,
            check_sample=request.check_sample,
            prepared=request.prepared,
        )
        return values, stats, plan, None


class NumpyBackend(Backend):
    """Vectorized executors (typed fast paths, object-dtype fallback)."""

    name = "numpy"
    capabilities = BackendCapabilities(
        families=frozenset({"ordinary", "gir", "moebius"}),
        exact=True,  # object-dtype arrays keep exact operands exact
        batch=True,
    )

    def execute(self, request: ExecutionRequest):
        from . import exec_gir, exec_moebius, exec_ordinary

        family = request.problem.family
        if family == "ordinary":
            plan = request.plan
            if plan is None:
                plan = exec_ordinary.build_plan(
                    request.source, request.problem.fingerprint()
                )
            values, stats = exec_ordinary.execute_numpy(
                request.source,
                plan,
                collect_stats=request.collect_stats,
                f_initial=request.f_initial,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
            )
            return values, stats, plan, None
        if family == "gir":
            values, stats, plan = exec_gir.execute(
                request.source,
                request.problem,
                request.plan,
                ordinary_engine="numpy",
                collect_stats=request.collect_stats,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
                eval_mode=request.options.get("gir_eval", "auto"),
            )
            return values, stats, plan, None
        values, stats, plan = exec_moebius.execute(
            request.source,
            request.problem,
            request.plan,
            backend_name="numpy",
            path=request.options.get("path", "auto"),
            guard=request.options.get("guard", "auto"),
            collect_stats=request.collect_stats,
            policy=request.policy,
            checked=request.checked,
            check_sample=request.check_sample,
            prepared=request.prepared,
        )
        return values, stats, plan, None

    def execute_batch(self, request, batch_initial, f_initial_batch=None):
        from . import exec_gir, exec_moebius, exec_ordinary

        family = request.problem.family
        if family == "gir":
            if f_initial_batch is not None:
                raise ValueError(
                    "f_initial_batch does not apply to the gir family"
                )
            return exec_gir.execute_batch(
                request.source,
                request.problem,
                request.plan,
                batch_initial,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
                eval_mode=request.options.get("gir_eval", "auto"),
            )
        if family == "moebius":
            if f_initial_batch is not None:
                raise ValueError(
                    "f_initial_batch does not apply to the moebius family"
                )
            return exec_moebius.execute_batch(
                request.source,
                request.problem,
                request.plan,
                batch_initial,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
                prepared=request.prepared,
            )
        if family != "ordinary":
            raise NotImplementedError(
                "batched execution covers the ordinary, gir and moebius "
                "families"
            )
        plan = request.plan
        if plan is None:
            plan = exec_ordinary.build_plan(
                request.source, request.problem.fingerprint()
            )
        values = exec_ordinary.execute_numpy_batch(
            request.source,
            plan,
            batch_initial,
            f_initial_batch=f_initial_batch,
            policy=request.policy,
            checked=request.checked,
            check_sample=request.check_sample,
        )
        return values, plan


class PRAMBackend(Backend):
    """Execute on the simulated PRAM machine (ordinary family).

    Options: ``processors`` (default 4), ``cost_model``,
    ``access_policy``, ``fault_plan``, ``max_retries`` -- forwarded to
    :func:`repro.pram.ir_programs.run_ordinary_on_pram`.  Returns the
    machine's :class:`~repro.pram.metrics.RunMetrics` as the backend
    metrics payload; :class:`~repro.resilience.SolvePolicy` budgets are
    not supported (the machine has its own fault/retry machinery).
    """

    name = "pram"
    capabilities = BackendCapabilities(
        families=frozenset({"ordinary"}),
        exact=True,
        batch=False,
        supports_policy=False,
    )

    def execute(self, request: ExecutionRequest):
        from ..pram.ir_programs import run_ordinary_on_pram

        if request.policy is not None:
            raise ValueError(
                "the pram backend does not support SolvePolicy; use its "
                "fault/retry options instead"
            )
        opts = request.options
        kwargs = {"processors": opts.get("processors", 4)}
        if "cost_model" in opts:
            kwargs["cost_model"] = opts["cost_model"]
        if "access_policy" in opts:
            kwargs["policy"] = opts["access_policy"]
        if "fault_plan" in opts:
            kwargs["fault_plan"] = opts["fault_plan"]
        if "max_retries" in opts:
            kwargs["max_retries"] = opts["max_retries"]
        values, metrics = run_ordinary_on_pram(
            request.source, f_initial=request.f_initial, **kwargs
        )
        if request.checked:
            from ..core.ordinary import _maybe_check

            _maybe_check(
                request.source,
                values,
                request.f_initial,
                request.checked,
                request.check_sample,
            )
        return values, None, None, metrics


class ShmBackend(Backend):
    """Shared-memory multiprocess executor (the first real-parallelism
    backend; see :mod:`repro.engine.exec_shm`).

    Splits each pointer-jumping round's active set into contiguous
    Brent-style ``n/P`` shards across a persistent pool of worker
    processes over ``multiprocessing.shared_memory``.  Covers the
    ordinary family with NumPy-typed operators, the Moebius affine
    fast path, and GIR trace evaluation (power-table rows sharded
    Brent-style, the plan arrays shipped once through the
    fingerprint-keyed shm upload path).  Options: ``workers``
    (default 4), Moebius ``path`` /
    ``guard``, ``watchdog_s`` (heartbeat watchdog override; ``<= 0``
    disables), ``max_retries`` (crash/hang respawn-and-retry budget),
    ``chaos`` (a :class:`~repro.chaos.ChaosPlan` or resolved event
    dict, injected into the real workers), and the test-only
    ``_test_crash`` fault-injection hook.  ``exact=False``: object
    operands cannot cross the process boundary without serialization,
    so exact/object solves stay on ``python`` / ``numpy``.
    """

    name = "shm"
    capabilities = BackendCapabilities(
        families=frozenset({"ordinary", "gir", "moebius"}),
        exact=False,
        batch=False,
    )

    def execute(self, request: ExecutionRequest):
        from . import exec_ordinary, exec_shm

        opts = request.options
        workers = int(opts.get("workers", exec_shm.DEFAULT_WORKERS))
        crash = opts.get("_test_crash")
        chaos = opts.get("chaos")
        if chaos is not None and hasattr(chaos, "resolve"):
            chaos = chaos.resolve(workers)
        watchdog_s = opts.get("watchdog_s")
        if watchdog_s is not None:
            watchdog_s = float(watchdog_s)
        retries = int(opts.get("max_retries", exec_shm.DEFAULT_RETRIES))
        family = request.problem.family
        if family == "ordinary":
            plan = request.plan
            if plan is None:
                plan = exec_ordinary.build_plan(
                    request.source, request.problem.fingerprint()
                )
            values, stats = exec_shm.execute_ordinary(
                request.source,
                plan,
                workers=workers,
                collect_stats=request.collect_stats,
                f_initial=request.f_initial,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
                crash=crash,
                chaos=chaos,
                watchdog_s=watchdog_s,
                retries=retries,
            )
            return values, stats, plan, None
        if family == "gir":
            values, stats, plan = exec_shm.execute_gir(
                request.source,
                request.problem,
                request.plan,
                workers=workers,
                collect_stats=request.collect_stats,
                policy=request.policy,
                checked=request.checked,
                check_sample=request.check_sample,
                crash=crash,
                chaos=chaos,
                watchdog_s=watchdog_s,
                retries=retries,
            )
            return values, stats, plan, None
        values, stats, plan = exec_shm.execute_moebius(
            request.source,
            request.problem,
            request.plan,
            workers=workers,
            path=opts.get("path", "auto"),
            guard=opts.get("guard", "auto"),
            collect_stats=request.collect_stats,
            policy=request.policy,
            checked=request.checked,
            check_sample=request.check_sample,
            crash=crash,
            chaos=chaos,
            watchdog_s=watchdog_s,
            retries=retries,
            prepared=request.prepared,
        )
        return values, stats, plan, None


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, *, overwrite: bool = False) -> None:
    """Add a backend to the registry under ``backend.name``."""
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> Backend:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    return _REGISTRY[name]


def available_backends() -> List[str]:
    return sorted(_REGISTRY)


def resolve_backend(name: str, problem: Problem) -> Backend:
    """Resolve ``name`` (or ``"auto"``) and check family capability."""
    if name == "auto":
        name = "numpy"
    backend = get_backend(name)
    if problem.family not in backend.capabilities.families:
        raise ValueError(
            f"backend {backend.name!r} does not support the "
            f"{problem.family!r} family (supported: "
            f"{sorted(backend.capabilities.families)})"
        )
    return backend


register_backend(PythonBackend())
register_backend(NumpyBackend())
register_backend(PRAMBackend())
register_backend(ShmBackend())
