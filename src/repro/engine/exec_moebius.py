"""Moebius executors: the reduction's numeric paths over a shared plan.

All three execution paths -- the exact ``Mat2`` object path and the
vectorized affine / rational float fast paths -- replay the same
:class:`~repro.engine.plan.MoebiusPlan` (an OrdinaryIR round schedule
over ``(g, f)``): the pointer-jumping structure is independent of how
the matrices are represented.  Path selection (``auto``), the numeric
guard and its degradation ladder (float -> exact ``Fraction`` -> the
sequential baseline) are orchestrated here, moved verbatim from the
historical :func:`repro.core.moebius.solve_moebius`.

The value-independent half of the affine path -- coefficient
classification, the ``c = 0`` / ``d != 0`` shape test, map validation
and the normalized ``(a/d, b/d)`` float64 arrays -- is computed by one
function, :func:`prepare`.  A fresh solve calls it per solve; a
:class:`~repro.engine.session.Session` calls it once at construction
and hands the result to every request, which then only classifies its
``initial`` values and replays the rounds in NumPy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry, get_tracer, maybe_span
from ..core.equations import IRValidationError, OrdinaryIRSystem
from ..core.moebius import (
    Mat2,
    RationalRecurrence,
    ScalarTypes,
    _as_exact,
    _exact_to_float,
    classify_scalars,
    moebius_ir_operator,
    run_moebius_sequential,
)
from ..core.ordinary import SolveStats
from ..resilience.guard import NumericGuard, default_guard
from . import exec_ordinary
from .plan import MoebiusPlan, OrdinaryPlan

__all__ = [
    "execute",
    "execute_batch",
    "execute_affine_batch",
    "prepare",
    "PreparedRecurrence",
    "affine_coefficients",
    "PATHS",
]

PATHS = ("auto", "object", "affine", "rational")

#: Integers at or beyond this magnitude may not survive the float64
#: cast exactly, so Python's ``int / int`` (correctly rounded from the
#: exact quotient) and the array division could differ.
_EXACT_INT_LIMIT = float(2**53)


@dataclass(frozen=True)
class PreparedRecurrence:
    """The value-independent state of a Moebius recurrence's solve.

    Everything here depends on the index maps and the coefficients
    only, never on ``initial``; :func:`prepare` builds it.  The arrays
    are read-only.  Like the operator of an ordinary system, the
    coefficients are pinned: mutating ``rec.a`` (etc.) in place after
    preparing is not supported.
    """

    #: ``(g, f, a, b, c, d)`` objects the state was derived from.
    columns: Tuple[Any, ...]
    m: int
    self_term: bool
    #: Types among the ``a, b, c, d`` coefficients.
    types: ScalarTypes
    #: ``c == 0`` and ``d != 0`` everywhere (meaningful when castable).
    affine_shape: bool
    #: Normalized ``a/d`` and ``b/d``, terminal fold not applied; ``None``
    #: when the float64 arrays could differ from the per-element
    #: ``Mat2`` arithmetic (self terms, exotic float types, large ints)
    #: or the recurrence is not affine-shaped.
    a: Optional[np.ndarray]
    b: Optional[np.ndarray]

    def describes(self, rec: RationalRecurrence) -> bool:
        """True when this state was prepared from ``rec``'s maps and
        coefficient objects (``dataclasses.replace(rec, initial=...)``
        keeps them)."""
        return (
            len(rec.initial) == self.m
            and rec.self_term == self.self_term
            and all(
                x is y
                for x, y in zip(
                    self.columns, (rec.g, rec.f, rec.a, rec.b, rec.c, rec.d)
                )
            )
        )

    def resolve(self, path: str, initial: ScalarTypes) -> str:
        """Concrete numeric path of a request whose ``initial`` values
        have the types ``initial``: ``affine`` for affine shapes over
        float-castable scalars with at least one float, ``rational``
        for other float-castable data, ``object`` otherwise (all-int
        and exact ``Fraction`` data keep the exact engine)."""
        if path != "auto":
            return path
        kinds = self.types | initial
        if kinds.castable and kinds.has_float:
            return "affine" if self.affine_shape else "rational"
        return "object"


def prepare(rec: RationalRecurrence) -> PreparedRecurrence:
    """Validate ``rec`` and compute its value-independent solve state:
    one type-set pass over the coefficients, one float64 cast per
    coefficient column, and the normalized affine arrays."""
    rec.validate()
    types = classify_scalars(itertools.chain(rec.a, rec.b, rec.c, rec.d))
    affine_shape = False
    a = b = None
    if types.castable:
        try:
            a_col, b_col, c_col, d_col = (
                np.asarray(col, dtype=np.float64)
                for col in (rec.a, rec.b, rec.c, rec.d)
            )
        except OverflowError:  # an int beyond float64's range
            affine_shape = all(x == 0 for x in rec.c) and all(
                x != 0 for x in rec.d
            )
        else:
            affine_shape = not c_col.any() and bool(d_col.all())
            if (
                affine_shape
                and not rec.self_term
                and types.plain
                and not (types.has_int and _has_large(a_col, b_col, d_col))
            ):
                with np.errstate(all="ignore"):
                    a, b = a_col / d_col, b_col / d_col
                a.flags.writeable = False
                b.flags.writeable = False
    return PreparedRecurrence(
        columns=(rec.g, rec.f, rec.a, rec.b, rec.c, rec.d),
        m=rec.m,
        self_term=rec.self_term,
        types=types,
        affine_shape=affine_shape,
        a=a,
        b=b,
    )


def _has_large(*cols: np.ndarray) -> bool:
    """Any finite entry at or beyond :data:`_EXACT_INT_LIMIT`."""
    return any(
        bool((np.isfinite(col) & (np.abs(col) >= _EXACT_INT_LIMIT)).any())
        for col in cols
    )


def _prepared(
    rec: RationalRecurrence, prepared: Optional[PreparedRecurrence]
) -> PreparedRecurrence:
    """``prepared`` when it was built from ``rec``, else a fresh
    :func:`prepare` (which validates ``rec``)."""
    if prepared is not None and prepared.describes(rec):
        return prepared
    return prepare(rec)


def build_plan(rec: RationalRecurrence, fingerprint: str) -> MoebiusPlan:
    """Plan the shared pointer-jumping structure over ``(g, f)``."""
    ordinary = exec_ordinary.build_plan_from_maps(
        rec.g, rec.f, rec.m, fingerprint
    )
    return MoebiusPlan(
        fingerprint=fingerprint, n=rec.n, m=rec.m, ordinary=ordinary
    )


def execute(
    rec: RationalRecurrence,
    problem,
    plan: Optional[MoebiusPlan],
    *,
    backend_name: str = "numpy",
    path: str = "auto",
    guard: Any = "auto",
    collect_stats: bool = False,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    prepared: Optional[PreparedRecurrence] = None,
) -> Tuple[List[Any], Optional[SolveStats], MoebiusPlan]:
    """Solve the recurrence, building ``plan`` when ``None``.

    ``path`` picks the numeric representation (``auto`` resolves per
    the fast-path applicability rules); ``guard="auto"`` arms the
    default numeric guard only for ``auto`` solves, matching the
    historical contract that explicitly selected engines keep their
    bit-level behavior unguarded.  ``prepared`` is the recurrence's
    :func:`prepare` state when the caller pinned it (a ``Session``);
    without it the state is built (and ``rec`` validated) here.
    """
    prepared = _prepared(rec, prepared)
    auto = path == "auto"
    guard_obj: Optional[NumericGuard]
    if isinstance(guard, str):
        if guard != "auto":
            raise ValueError(f"unknown guard mode {guard!r}")
        guard_obj = default_guard() if auto else None
    else:
        guard_obj = guard
    initial_types = classify_scalars(rec.initial)
    resolved = prepared.resolve(path, initial_types)
    if resolved not in ("object", "affine", "rational"):
        raise ValueError(f"unknown engine {resolved!r}")

    if plan is None:
        plan = build_plan(rec, problem.fingerprint())

    X, stats, assigned = _run_path(
        rec,
        plan,
        resolved,
        prepared,
        initial_types,
        backend_name=backend_name,
        collect_stats=collect_stats,
        guard=guard_obj,
        policy=policy,
    )

    if guard_obj is not None:
        X, stats = _escalate_if_unhealthy(
            rec,
            plan,
            X,
            stats,
            engine=_engine_label(resolved, backend_name),
            guard=guard_obj,
            collect_stats=collect_stats,
            policy=policy,
            assigned=assigned,
        )

    if checked:
        from ..resilience.verify import differential_check

        differential_check("moebius", rec, X, sample=check_sample)
    return X, stats, plan


def _engine_label(resolved: str, backend_name: str) -> str:
    """The engine name reported in spans/metrics (the object path
    reports the backend that ran it, as the historical solver did)."""
    return backend_name if resolved == "object" else resolved


def _run_path(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    resolved: str,
    prepared: PreparedRecurrence,
    initial_types: ScalarTypes,
    *,
    backend_name: str,
    collect_stats: bool,
    guard: Optional[NumericGuard],
    policy,
) -> Tuple[List[Any], Optional[SolveStats], Optional[np.ndarray]]:
    """Dispatch one concrete path (no ladder, no auto resolution);
    returns ``(values, stats, assigned)`` where ``assigned`` is the
    affine path's float64 array of assigned values, else ``None``."""
    if resolved == "affine":
        return _solve_affine(
            rec,
            plan,
            prepared,
            initial_types,
            collect_stats=collect_stats,
            policy=policy,
        )
    if resolved == "rational":
        X, stats = execute_rational(
            rec, plan, collect_stats=collect_stats, guard=guard, policy=policy
        )
    else:
        X, stats = execute_object(
            rec,
            plan,
            engine=backend_name,
            collect_stats=collect_stats,
            guard=guard,
            policy=policy,
        )
    return X, stats, None


def execute_object(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    *,
    engine: str = "numpy",
    collect_stats: bool = False,
    guard: Optional[NumericGuard] = None,
    policy=None,
) -> Tuple[List[Any], Optional[SolveStats]]:
    """The exact object path: ``Mat2`` coefficient matrices solved as
    an OrdinaryIR system over the planned round schedule."""
    if engine not in ("numpy", "python"):
        raise ValueError(f"unknown engine {engine!r}")
    n, m = rec.n, rec.m

    tracer = get_tracer()
    registry = get_registry()
    with maybe_span(tracer, "solver.moebius", engine=engine, n=n):
        with maybe_span(tracer, "moebius.coefficients"):
            coeff = [Mat2.constant(rec.initial[x]) for x in range(m)]
            for i in range(n):
                coeff[int(rec.g[i])] = rec.coefficient_matrix(i)
            const = [Mat2.constant(rec.initial[x]) for x in range(m)]

        system = OrdinaryIRSystem(
            initial=coeff,
            g=rec.g,
            f=rec.f,
            op=moebius_ir_operator(guard),
        )
        with maybe_span(tracer, "moebius.ir_solve"):
            runner = (
                exec_ordinary.execute_numpy
                if engine == "numpy"
                else exec_ordinary.execute_python
            )
            solved, stats = runner(
                system,
                plan.ordinary,
                collect_stats=collect_stats,
                f_initial=const,
                policy=policy,
            )

        with maybe_span(tracer, "moebius.evaluate"):
            X = list(rec.initial)
            for i in range(n):
                cell = int(rec.g[i])
                mat = solved[cell]
                # The composed matrix always ends in a constant map;
                # evaluate it.  Following the paper we feed S[g(i)] as
                # the (irrelevant) argument when the matrix is rank-1
                # but not in b/d form.
                if mat.a == 0 and mat.c == 0:
                    X[cell] = mat.b / mat.d
                else:
                    X[cell] = mat.apply(rec.initial[cell])
        if registry is not None:
            registry.counter("solver.solves", engine="moebius").inc()
    return X, stats


def _escalate_if_unhealthy(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    X: List[Any],
    stats: Optional[SolveStats],
    *,
    engine: str,
    guard: NumericGuard,
    collect_stats: bool,
    policy,
    assigned: Optional[np.ndarray] = None,
) -> Tuple[List[Any], Optional[SolveStats]]:
    """The degradation ladder's upper rungs.

    Rung 1 (the path that just ran) produced ``X``; if the guard finds
    it unhealthy, rung 2 re-solves with exact ``Fraction`` arithmetic
    on the object path (possible iff every input scalar is finite) --
    reusing the same plan, since the maps are unchanged -- and rung 3
    falls back to the sequential baseline, which *defines* the
    recurrence's semantics.  ``assigned`` is the float64 array of the
    assigned values in iteration order when the path has one (the
    affine paths); otherwise they are gathered from ``X``.
    """
    if assigned is None:
        assigned = (X[int(c)] for c in rec.g)
    report = guard.check_values(assigned, where=f"moebius.{engine}")
    if report.healthy:
        return X, stats

    tracer = get_tracer()
    guard.record_trip(
        kind="nan" if report.nan_count else "inf", engine=engine
    )

    exact = _as_exact(rec)
    if exact is not None:
        guard.record_escalation(source=engine, target="exact")
        try:
            with maybe_span(
                tracer, "resilience.escalate", source=engine, target="exact"
            ):
                Xe, stats_e = execute_object(
                    exact,
                    plan,
                    engine="numpy",
                    collect_stats=collect_stats,
                    guard=None,  # exact arithmetic: det == 0 is exact
                    policy=policy,
                )
            return [_exact_to_float(v) for v in Xe], stats_e
        except ZeroDivisionError:
            # a genuine pole (0/0 or x/0): only float semantics can
            # express the result; fall through to the baseline
            pass

    guard.record_escalation(source=engine, target="sequential")
    with maybe_span(
        tracer, "resilience.escalate", source=engine, target="sequential"
    ):
        return run_moebius_sequential(rec), stats


def _affine_base(rec: RationalRecurrence) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized per-iteration ``(a, b)`` coefficients, terminal fold
    **not** applied, one ``Mat2`` per element: the reference for
    :func:`prepare`'s arrays, and the path for the data they do not
    cover (self terms, exotic float types, large ints, forced
    ``path="affine"`` on other shapes).  Validates the affine
    preconditions (``c = 0``, ``d != 0``)."""
    n = rec.n
    if any(c != 0 for c in rec.c):
        raise IRValidationError(
            "solve_affine_numpy requires c = 0 everywhere; use "
            "solve_moebius for rational recurrences"
        )
    if any(d == 0 for d in rec.d):
        raise ZeroDivisionError("affine normalization needs d != 0")

    # per-iteration normalized coefficients (self-term folded in)
    a = np.empty(n, dtype=np.float64)
    b = np.empty(n, dtype=np.float64)
    for i in range(n):
        mat = rec.coefficient_matrix(i)
        a[i] = mat.a / mat.d
        b[i] = mat.b / mat.d
    return a, b


def _folded(
    rec: RationalRecurrence,
    prepared: PreparedRecurrence,
    initial: np.ndarray,
    sched: OrdinaryPlan,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fresh ``(a, b)`` working arrays with the terminal fold applied;
    ``initial`` is ``(m,)`` or a ``(k, m)`` batch (``b`` follows its
    leading axis, ``a`` never depends on values)."""
    if prepared.a is not None:
        a, b0 = prepared.a.copy(), prepared.b
    else:
        a, b0 = _affine_base(rec)
    b = np.array(np.broadcast_to(b0, initial.shape[:-1] + b0.shape))
    terminal = sched.terminal_idx
    # terminals absorb Const(S[f(i)]): (a,b) o (0,S) = (0, a*S + b);
    # constant pairs (a == 0) keep their b untouched -- their
    # structural zero must absorb even an infinite S
    at = a[terminal]
    with np.errstate(invalid="ignore"):
        b[..., terminal] = np.where(
            at == 0.0,
            b[..., terminal],
            at * initial[..., sched.f[terminal]] + b[..., terminal],
        )
    a[terminal] = 0.0
    return a, b


def affine_coefficients(
    rec: RationalRecurrence,
    sched: OrdinaryPlan,
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized per-iteration ``(a, b)`` coefficient arrays for the
    affine fast path, with the terminal fold already applied --
    float64 arrays ready for round replay (a fresh :func:`prepare`
    plus the fold)."""
    return _folded(
        rec, prepare(rec), np.asarray(rec.initial, dtype=np.float64), sched
    )


def _replay_affine(a: np.ndarray, b: np.ndarray, active, p) -> None:
    """One composition round in place: the newer segment (``active``)
    composes over the older one (``p``); a 2-D ``b`` is a batch, one
    row per instance (a row at a time: NumPy's 2-D fancy indexing is
    several times slower than ``k`` 1-D passes).  Constant pairs
    (a == 0) absorb: the odot rule, kept out of IEEE's 0 * inf = NaN."""
    aa = a[active]
    const_pair = aa == 0.0
    for row in b if b.ndim > 1 else (b,):
        bb = row[active]
        row[active] = np.where(const_pair, bb, aa * row[p] + bb)
    a[active] = np.where(const_pair, 0.0, aa * a[p])


def _scatter(
    initial: Sequence[Any],
    initial_arr: np.ndarray,
    types: ScalarTypes,
    g: np.ndarray,
    values: np.ndarray,
) -> List[Any]:
    """The solved vector: ``initial`` with cell ``g[i]`` set to
    ``values[i]``.  All-``float`` rows scatter in float64; any other
    row keeps its unassigned cells' own objects."""
    if types.only_float:
        out = initial_arr.copy()
        out[g] = values
        return out.tolist()
    out = list(initial)
    for cell, v in zip(g.tolist(), values.tolist()):
        out[cell] = v
    return out


def execute_affine(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    *,
    collect_stats: bool = False,
    guard: Optional[NumericGuard] = None,
    policy=None,
) -> Tuple[List[Any], Optional[SolveStats]]:
    """Vectorized fast path for *affine* recurrences (``c = 0``) over
    the planned schedule; see the historical
    :func:`repro.core.moebius.solve_affine_numpy` for the algebra."""
    X, stats, _assigned = _solve_affine(
        rec,
        plan,
        prepare(rec),
        classify_scalars(rec.initial),
        collect_stats=collect_stats,
        policy=policy,
    )
    return X, stats


def _solve_affine(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    prepared: PreparedRecurrence,
    initial_types: ScalarTypes,
    *,
    collect_stats: bool,
    policy,
) -> Tuple[List[Any], Optional[SolveStats], Optional[np.ndarray]]:
    """:func:`execute_affine` plus the assigned values in iteration
    order (``None`` after a sequential fallback), for the guard."""
    n = rec.n
    sched = plan.ordinary
    initial = np.asarray(rec.initial, dtype=np.float64)
    a, b = _folded(rec, prepared, initial, sched)

    stats = (
        SolveStats(n=n, init_ops=sched.init_ops) if collect_stats else None
    )

    enforcer = policy.enforcer("moebius.affine") if policy is not None else None
    tracer = get_tracer()
    registry = get_registry()
    rounds = 0
    with maybe_span(tracer, "solver.moebius", engine="affine", n=n) as root:
        with np.errstate(over="ignore", invalid="ignore"):
            for active, p in sched.steps:
                if enforcer is not None and not enforcer.admit():
                    break
                count = int(active.size)
                with maybe_span(
                    tracer,
                    "solver.round",
                    engine="affine",
                    round=rounds,
                    active=count,
                ):
                    _replay_affine(a, b, active, p)
                    rounds += 1
                    if stats is not None:
                        stats.rounds += 1
                        stats.active_per_round.append(count)
                if registry is not None:
                    registry.counter("solver.rounds", engine="affine").inc()
                    registry.histogram(
                        "solver.active_cells", engine="affine"
                    ).observe(count)
        if root is not None:
            root.set_attribute("rounds", rounds)
        if registry is not None:
            registry.counter("solver.solves", engine="affine").inc()

    if enforcer is not None and enforcer.should_fallback:
        return run_moebius_sequential(rec), stats, None

    # all (completed) maps end constant: value = b
    return _scatter(rec.initial, initial, initial_types, sched.g, b), stats, b


def execute_rational(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    *,
    collect_stats: bool = False,
    guard: Optional[NumericGuard] = None,
    policy=None,
) -> Tuple[List[Any], Optional[SolveStats]]:
    """Vectorized engine for *rational* recurrences over floats on the
    planned schedule; see the historical
    :func:`repro.core.moebius.solve_rational_numpy` for the algebra."""
    rec.validate()
    n = rec.n

    initial = np.asarray(rec.initial, dtype=np.float64)
    A = np.empty(n)
    B = np.empty(n)
    C = np.empty(n)
    D = np.empty(n)
    for i in range(n):
        mat = rec.coefficient_matrix(i)
        A[i], B[i], C[i], D[i] = mat.a, mat.b, mat.c, mat.d

    sched = plan.ordinary
    terminal = sched.terminal_idx

    def singular(ma, mb, mc, md):
        if guard is not None:
            return guard.singular_mask(ma, mb, mc, md)
        return ma * md - mb * mc == 0

    def amul(x, y):
        # product with an exact absorbing zero (vectorized _zmul): a
        # structural 0 entry wipes out a non-finite partner instead of
        # manufacturing NaN; finite data is untouched
        out = x * y
        zero = (x == 0.0) | (y == 0.0)
        if zero.any():
            out = np.where(zero, 0.0, out)
        return out

    # terminals compose their map over Const(S[f(i)]) = [[0,S],[0,1]]
    s_f = initial[sched.f[terminal]]
    with np.errstate(over="ignore", invalid="ignore"):
        keep = singular(A[terminal], B[terminal], C[terminal], D[terminal])
        new_b = np.where(keep, B[terminal], amul(A[terminal], s_f) + B[terminal])
        new_d = np.where(keep, D[terminal], amul(C[terminal], s_f) + D[terminal])
        new_a = np.where(keep, A[terminal], 0.0)
        new_c = np.where(keep, C[terminal], 0.0)
    A[terminal], B[terminal], C[terminal], D[terminal] = new_a, new_b, new_c, new_d

    stats = (
        SolveStats(n=n, init_ops=sched.init_ops) if collect_stats else None
    )

    enforcer = policy.enforcer("moebius.rational") if policy is not None else None
    tracer = get_tracer()
    registry = get_registry()
    rounds = 0
    with maybe_span(tracer, "solver.moebius", engine="rational", n=n) as root:
        with np.errstate(over="ignore", invalid="ignore"):
            for active, p in sched.steps:
                if enforcer is not None and not enforcer.admit():
                    break
                count = int(active.size)
                with maybe_span(
                    tracer,
                    "solver.round",
                    engine="rational",
                    round=rounds,
                    active=count,
                ):
                    ao, bo, co, do = A[active], B[active], C[active], D[active]
                    ai, bi, ci, di = A[p], B[p], C[p], D[p]
                    keep = singular(ao, bo, co, do)  # odot: singular outer absorbs
                    A[active] = np.where(keep, ao, amul(ao, ai) + amul(bo, ci))
                    B[active] = np.where(keep, bo, amul(ao, bi) + amul(bo, di))
                    C[active] = np.where(keep, co, amul(co, ai) + amul(do, ci))
                    D[active] = np.where(keep, do, amul(co, bi) + amul(do, di))
                    rounds += 1
                    if stats is not None:
                        stats.rounds += 1
                        stats.active_per_round.append(count)
                if registry is not None:
                    registry.counter("solver.rounds", engine="rational").inc()
                    registry.histogram(
                        "solver.active_cells", engine="rational"
                    ).observe(count)
        if root is not None:
            root.set_attribute("rounds", rounds)
        if registry is not None:
            registry.counter("solver.solves", engine="rational").inc()

    if enforcer is not None and enforcer.should_fallback:
        return run_moebius_sequential(rec), stats

    out = list(rec.initial)
    g_list = sched.g.tolist()
    for i in range(n):
        a, b, c, d = A[i], B[i], C[i], D[i]
        if a == 0 and c == 0:
            out[g_list[i]] = b / d
        else:  # rank-1 map: evaluate at the paper's S[g(i)] argument
            s = rec.initial[g_list[i]]
            out[g_list[i]] = (a * s + b) / (c * s + d)
    return out, stats


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------


def _stack_types(
    rec: RationalRecurrence,
    prepared: PreparedRecurrence,
    batch: Sequence[Sequence[Any]],
) -> Optional[List[ScalarTypes]]:
    """Each row's scalar types when the whole batch can run as one
    stacked affine sweep, else ``None``.  It can when there is no self
    term (the self-term rewrite folds each row's initial values into
    the *coefficients*, so they stop being row-independent) and every
    row resolves to the affine path exactly as its own ``auto`` solve
    would -- so a row stacks iff :func:`execute` would run it affine."""
    if rec.self_term:
        return None
    types = [classify_scalars(row) for row in batch]
    if all(prepared.resolve("auto", t) == "affine" for t in types):
        return types
    return None


def execute_affine_batch(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    batch_initial,
) -> List[List[Any]]:
    """``k`` affine recurrences sharing maps + coefficients in one sweep.

    The ``a`` coefficients are row-independent (composition multiplies
    them without touching values), so they stay ``(n,)``; only ``b``
    -- where each row's initial values enter through the terminal fold
    -- is stacked to ``(k, n)``.  Round semantics are identical to
    :func:`execute_affine`, so each row matches its single solve
    bit-for-bit.
    """
    rows, _b = _affine_batch(
        rec,
        plan,
        prepare(rec),
        batch_initial,
        [classify_scalars(row) for row in batch_initial],
    )
    return rows


def _affine_batch(
    rec: RationalRecurrence,
    plan: MoebiusPlan,
    prepared: PreparedRecurrence,
    batch_initial,
    row_types: List[ScalarTypes],
) -> Tuple[List[List[Any]], np.ndarray]:
    """:func:`execute_affine_batch` plus the ``(k, n)`` assigned values."""
    sched = plan.ordinary
    V = np.asarray(batch_initial, dtype=np.float64)  # (k, m)
    a, b = _folded(rec, prepared, V, sched)

    tracer = get_tracer()
    registry = get_registry()
    with maybe_span(
        tracer, "solver.moebius", engine="affine.batch", n=rec.n, batch=len(V)
    ) as root:
        with np.errstate(over="ignore", invalid="ignore"):
            for active, p in sched.steps:
                _replay_affine(a, b, active, p)
        if root is not None:
            root.set_attribute("rounds", sched.rounds)
        if registry is not None:
            registry.counter("solver.solves", engine="affine.batch").inc()

    rows = [
        _scatter(row, V[r], types, sched.g, b[r])
        for r, (row, types) in enumerate(zip(batch_initial, row_types))
    ]
    return rows, b


def execute_batch(
    rec: RationalRecurrence,
    problem,
    plan: Optional[MoebiusPlan],
    batch_initial,
    *,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    prepared: Optional[PreparedRecurrence] = None,
) -> Tuple[List[List[Any]], MoebiusPlan]:
    """Batch front door for the Moebius family.

    Stacks the rows into one :func:`execute_affine_batch` sweep when
    every row would take the affine path on its own
    (:func:`_stack_types`); otherwise replays the shared plan per row
    (object / Fraction operands, rational recurrences, self-term
    rewrites) -- which still skips all replanning.  A stacked row the
    default guard finds unhealthy is re-solved alone, through the same
    escalation ladder as a single ``auto`` solve.  A ``policy`` routes
    through the per-row path so every row gets the full
    budget/fallback semantics of a single solve.
    """
    import dataclasses

    prepared = _prepared(rec, prepared)
    if plan is None:
        plan = build_plan(rec, problem.fingerprint())
    if len(batch_initial) == 0:
        return [], plan

    row_types = (
        _stack_types(rec, prepared, batch_initial) if policy is None else None
    )
    if row_types is not None:
        rows, b = _affine_batch(rec, plan, prepared, batch_initial, row_types)
        guard = default_guard()
        for r, row in enumerate(batch_initial):
            if not guard.check_values(b[r]).healthy:
                inst = dataclasses.replace(rec, initial=list(row))
                rows[r] = execute(inst, problem, plan, prepared=prepared)[0]
        if checked:
            from ..resilience.verify import differential_check

            for row, X in zip(batch_initial, rows):
                inst = dataclasses.replace(rec, initial=list(row))
                differential_check("moebius", inst, X, sample=check_sample)
        return rows, plan

    # Per-row replay shares ONE cumulative policy budget: each row is
    # handed the remaining slice of the original timeout, so a batch
    # cannot stretch a t-second budget into k*t seconds.
    from ..resilience import policy as policy_mod

    t0 = policy_mod.budget_clock() if policy is not None else 0.0
    out: List[List[Any]] = []
    for row in batch_initial:
        row_policy = policy.with_remaining(t0) if policy is not None else None
        inst = dataclasses.replace(rec, initial=list(row))
        X, _stats, _plan = execute(
            inst,
            problem,
            plan,
            policy=row_policy,
            checked=checked,
            check_sample=check_sample,
            prepared=prepared,
        )
        out.append(X)
    return out, plan
