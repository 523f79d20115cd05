"""GIR executor: plan the dependence-DAG/CAP pipeline once, evaluate
trace power tables per solve.

The value-independent artifacts -- renaming, the dependence graph, the
CAP path counts flattened into the CSR-style
:class:`~repro.engine.plan.PowerTable` -- live in the
:class:`~repro.engine.plan.GIRPlan`; re-solving a system with the same
maps (different initial values, different commutative operator) skips
straight to trace evaluation.  Ordinary-shaped systems carry a nested
:class:`OrdinaryPlan` and run through the pointer-jumping executors
instead, exactly as the historical ``solve_gir`` dispatched.

Trace evaluation has two modes:

* ``"batched"`` -- for operators with a picklable ``vector_power``
  (and exponents reducible into int64 via ``power_period``): every
  distinct ``(cell, exponent)`` pair is powered **once** per
  initial-value vector, and the combine phase runs vectorized over all
  rows sharing a factor count, replicating the legacy balanced pairing
  column-for-column so results are bit-identical to the per-row loop.
* ``"rows"`` -- the historical per-row evaluation over pre-sorted
  cells (no per-call re-sort), with a power memo so each distinct
  atomic power is still computed once; this is the exact-semantics
  path for ``Fraction``/object operators and the comparator the
  Fig-5 bench gates against.

``execute_batch`` sweeps k initial-value vectors through one plan;
the per-plan int64 exponent reductions are cached on the
:class:`PowerTable`, so each extra vector costs only its powers and
combines.

Span structure on a planning solve matches the historical solver
(``solver.gir`` containing ``gir.normalize``/``gir.build_graph``/
``gir.cap``/``gir.evaluate``); a plan-cache hit emits only the
``gir.evaluate`` phase, since that is all that runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_registry, get_tracer, maybe_span
from ..core.cap import CAPResult, count_all_paths
from ..core.depgraph import build_dependence_graph
from ..core.equations import OrdinaryIRSystem, normalize_non_distinct
from ..core.gir import GIRSolveStats, evaluate_trace_powers_items
from . import exec_ordinary
from .plan import GIRPlan, PowerTable

__all__ = ["execute", "execute_batch", "build_plan", "eval_rows_vectorized"]

_EVAL_MODES = ("auto", "batched", "rows")


def _should_dispatch(system, problem) -> bool:
    return (
        problem.allow_ordinary_dispatch
        and system.is_ordinary_shaped()
        and system.g_is_distinct()
    )


def build_plan(system, problem, *, policy=None) -> GIRPlan:
    """Build the value-independent GIR plan (dispatch or CAP pipeline).

    Shared by every backend and the CLI; emits the ``gir.normalize`` /
    ``gir.build_graph`` / ``gir.cap`` phase spans (nested under
    whatever span the caller holds open).
    """
    system.validate()
    if _should_dispatch(system, problem):
        ordinary = OrdinaryIRSystem(
            initial=list(system.initial),
            g=system.g,
            f=system.f,
            op=system.op,
        )
        return GIRPlan(
            fingerprint=problem.fingerprint(),
            n=system.n,
            m=system.m,
            dispatch=exec_ordinary.build_plan(ordinary, problem.fingerprint()),
        )

    system.op.require_commutative()
    tracer = get_tracer()
    renamed = not system.g_is_distinct()
    final_cell_of = None
    work_system = system
    if renamed:
        if not problem.allow_rename:
            raise ValueError(
                "system has non-distinct g; pass allow_rename=True "
                "or normalize explicitly"
            )
        with maybe_span(tracer, "gir.normalize"):
            norm = normalize_non_distinct(system)
        work_system = norm.system
        final_cell_of = norm.final_cell_of

    with maybe_span(tracer, "gir.build_graph") as gsp:
        graph = build_dependence_graph(work_system)
        if gsp is not None:
            gsp.set_attribute("edges", graph.edge_count())
            gsp.set_attribute("depth", graph.depth())
    with maybe_span(tracer, "gir.cap"):
        # acyclic by construction: every operand resolves to an
        # earlier writer or a leaf
        cap: CAPResult = count_all_paths(graph, policy=policy, validate=False)
    # Leaf cells are always original cells (< m): renamed version
    # cells are written before any read, so only pristine cells appear
    # as initial-value leaves.  The table therefore indexes the
    # original initial array.
    table = PowerTable.from_node_rows(cap.powers, graph.n)
    return GIRPlan(
        fingerprint=problem.fingerprint(),
        n=system.n,
        m=system.m,
        renamed=renamed,
        out_cells=work_system.g,
        table=table,
        final_cell_of=final_cell_of,
        cap_iterations=cap.iterations,
        cap_edge_work=cap.edge_work,
    )


# ---------------------------------------------------------------------------
# Trace evaluation
# ---------------------------------------------------------------------------


def eval_rows_vectorized(
    row_ptr: np.ndarray,
    cells: np.ndarray,
    exponents: np.ndarray,
    initial_arr: np.ndarray,
    vector_fn,
    vector_power,
    lo: int = 0,
    hi: Optional[int] = None,
    factors: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate trace rows ``[lo, hi)`` of a flat power table.

    ``factors`` (pre-powered per-entry factor values, e.g. from the
    deduplicated power pass) may be supplied; otherwise every entry is
    powered directly.  The combine phase replays the legacy balanced
    pairwise reduction **column-for-column** -- pair ``(2t, 2t+1)``,
    odd leftover appended at the end of the next level -- so results
    are bit-identical to :func:`repro.core.gir.evaluate_trace_powers`
    even for non-exact (floating) operators.

    Shared by the NumPy batched evaluator and the shm GIR workers
    (each worker calls it on its Brent row shard).
    """
    if hi is None:
        hi = int(row_ptr.shape[0]) - 1
    base_off = int(row_ptr[lo])
    if factors is None:
        seg = slice(base_off, int(row_ptr[hi]))
        factors = vector_power(initial_arr[cells[seg]], exponents[seg])
        base_off = 0
        ptr = row_ptr[lo : hi + 1] - int(row_ptr[lo])
    else:
        ptr = row_ptr[lo : hi + 1]
    lengths = np.diff(ptr)
    if lengths.size and int(lengths.min()) == 0:
        raise ValueError("empty trace: cell was never assigned")
    out = np.empty(hi - lo, dtype=initial_arr.dtype)
    starts = ptr[:-1]
    for width in np.unique(lengths):
        width = int(width)
        idx = np.nonzero(lengths == width)[0]
        base = starts[idx]
        cols = [factors[base + j] for j in range(width)]
        while len(cols) > 1:
            nxt = [
                vector_fn(cols[2 * t], cols[2 * t + 1])
                for t in range(len(cols) // 2)
            ]
            if len(cols) % 2:
                nxt.append(cols[-1])
            cols = nxt
        out[idx] = cols[0]
    return out


def _typed_eval_setup(plan: GIRPlan, initial: Sequence[Any], op):
    """Try to stage the vectorized path: returns ``(initial_arr,
    ucells, uexps, inverse)`` or ``None`` when the operator/values
    cannot take it exactly."""
    if op.vector_fn is None or op.vector_power is None or op.dtype is None:
        return None
    dedup = plan.table.dedup_factors(op.power_period)
    if dedup is None:
        return None
    try:
        initial_arr = np.asarray(initial, dtype=np.dtype(op.dtype))
    except (OverflowError, TypeError, ValueError):
        return None
    if initial_arr.shape != (len(initial),):
        return None
    domain_check = getattr(op.vector_power, "domain_check", None)
    if domain_check is not None and not domain_check(initial_arr):
        return None
    return (initial_arr,) + dedup


def _evaluate_batched(plan: GIRPlan, setup, op) -> np.ndarray:
    """One vectorized sweep: power each distinct (cell, exponent) pair
    once, scatter, combine all rows level by level."""
    initial_arr, ucells, uexps, inverse = setup
    unique_factors = op.vector_power(initial_arr[ucells], uexps)
    factors = unique_factors[inverse]
    table = plan.table
    return eval_rows_vectorized(
        table.row_ptr,
        table.cells,
        None,
        initial_arr,
        op.vector_fn,
        op.vector_power,
        factors=factors,
    )


def _evaluate_rows(
    plan: GIRPlan, initial: Sequence[Any], op
) -> List[Any]:
    """Per-row object-exact evaluation over pre-sorted cells, with a
    power memo so each distinct atomic power is computed once."""
    table = plan.table
    memo: Dict[Tuple[int, int], Any] = {}
    power = op.power
    values: List[Any] = []
    ptr = table.row_ptr
    cells = table.cells
    exps = table.exponents
    for i in range(table.rows):
        lo, hi = int(ptr[i]), int(ptr[i + 1])
        items = []
        for j in range(lo, hi):
            c = int(cells[j])
            x = exps[j]
            items.append((c, x))
            if x > 1 and (c, x) not in memo:
                memo[(c, x)] = power(initial[c], x)
        if not items:
            raise ValueError("empty trace: cell was never assigned")
        factors = [
            initial[c] if x == 1 else memo[(c, x)] for c, x in items
        ]
        # balanced pairwise reduction, identical to the legacy order
        while len(factors) > 1:
            nxt = [
                op.fn(factors[2 * t], factors[2 * t + 1])
                for t in range(len(factors) // 2)
            ]
            if len(factors) % 2:
                nxt.append(factors[-1])
            factors = nxt
        values.append(factors[0])
    return values


def _scatter(
    plan: GIRPlan, system, values, typed_arr: Optional[np.ndarray]
) -> List[Any]:
    """Place per-row trace values into the (possibly renamed) working
    array and project back onto the original cells."""
    n = plan.table.rows
    out_cells = plan.out_cells
    if typed_arr is not None:
        if plan.renamed:
            work = np.concatenate(
                [typed_arr, typed_arr[np.asarray(system.g, dtype=np.int64)]]
            )
        else:
            work = typed_arr.copy()
        work[out_cells] = values
        if plan.renamed:
            work = work[plan.final_cell_of]
        return work.tolist()
    out_list = list(system.initial)
    if plan.renamed:
        g_list = system.g.tolist()
        out_list = out_list + [system.initial[g_list[i]] for i in range(n)]
    cells = out_cells.tolist()
    for i, value in enumerate(values):
        out_list[cells[i]] = value
    if plan.renamed:
        out_list = [out_list[int(c)] for c in plan.final_cell_of]
    return out_list


def _evaluate(
    plan: GIRPlan, system, eval_mode: str
) -> Tuple[List[Any], str]:
    """Dispatch one initial-value vector through the requested
    evaluation mode; returns ``(values, mode_used)``."""
    initial = system.initial
    op = system.op
    setup = None
    if eval_mode in ("auto", "batched"):
        setup = _typed_eval_setup(plan, initial, op)
    if setup is not None:
        values = _evaluate_batched(plan, setup, op)
        return _scatter(plan, system, values, setup[0]), "batched"
    values = _evaluate_rows(plan, initial, op)
    return _scatter(plan, system, values, None), "rows"


# ---------------------------------------------------------------------------
# Execution entry points
# ---------------------------------------------------------------------------


def execute(
    system,
    problem,
    plan: Optional[GIRPlan],
    *,
    ordinary_engine: str = "numpy",
    collect_stats: bool = False,
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    eval_mode: str = "auto",
) -> Tuple[List[Any], Optional[GIRSolveStats], GIRPlan]:
    """Solve a GIR system, building ``plan`` when ``None``.

    ``eval_mode`` selects trace evaluation: ``"batched"`` (vectorized
    power-dedup path when the operator supports it), ``"rows"`` (the
    per-row executor) or ``"auto"`` (batched for the numpy engine,
    rows for the pure-Python engine).  Returns ``(values, stats,
    plan)`` so the caller can cache the plan.
    """
    if eval_mode not in _EVAL_MODES:
        raise ValueError(
            f"unknown gir_eval mode {eval_mode!r}; expected one of "
            f"{_EVAL_MODES}"
        )
    if plan is None:
        system.validate()
        dispatch = _should_dispatch(system, problem)
    else:
        dispatch = plan.dispatch is not None

    if dispatch:
        ordinary = OrdinaryIRSystem(
            initial=list(system.initial),
            g=system.g,
            f=system.f,
            op=system.op,
        )
        if plan is None:
            ordinary_plan = exec_ordinary.build_plan(
                ordinary, problem.fingerprint()
            )
            plan = GIRPlan(
                fingerprint=problem.fingerprint(),
                n=system.n,
                m=system.m,
                dispatch=ordinary_plan,
            )
        runner = (
            exec_ordinary.execute_python
            if ordinary_engine == "python"
            else exec_ordinary.execute_numpy
        )
        out, ord_stats = runner(
            ordinary, plan.dispatch, collect_stats=collect_stats, policy=policy
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

    system.op.require_commutative()

    tracer = get_tracer()
    registry = get_registry()
    n = system.n
    with maybe_span(tracer, "solver.gir", n=n) as root:
        if plan is None:
            plan = build_plan(system, problem, policy=policy)

        if eval_mode == "auto" and ordinary_engine == "python":
            eval_mode = "rows"

        with maybe_span(tracer, "gir.evaluate") as esp:
            out, mode_used = _evaluate(plan, system, eval_mode)
            power_ops = plan.table.power_entry_count
            combine_ops = plan.table.nnz - plan.table.rows
            depth = plan.table.reduction_depth
            if esp is not None:
                esp.set_attribute("power_ops", power_ops)
                esp.set_attribute("combine_ops", combine_ops)
                esp.set_attribute("mode", mode_used)

        if root is not None:
            root.set_attribute("cap_iterations", plan.cap_iterations)
            root.set_attribute("renamed", plan.renamed)
        if registry is not None:
            registry.counter("solver.solves", engine="gir").inc()
            registry.counter("gir.power_ops").inc(power_ops)
            registry.counter("gir.combine_ops").inc(combine_ops)

    stats = None
    if collect_stats:
        stats = GIRSolveStats(
            n=plan.table.rows,
            cap_iterations=plan.cap_iterations,
            cap_edge_work=plan.cap_edge_work,
            power_ops=power_ops,
            combine_ops=combine_ops,
            reduction_depth=depth,
            renamed=plan.renamed,
        )
    if checked:
        from ..resilience.verify import differential_check

        differential_check("gir", system, out, sample=check_sample)
    return out, stats, plan


def execute_batch(
    system,
    problem,
    plan: Optional[GIRPlan],
    batch_initial: Sequence[Sequence[Any]],
    *,
    ordinary_engine: str = "numpy",
    policy=None,
    checked: bool = False,
    check_sample: Optional[int] = 64,
    eval_mode: str = "auto",
) -> Tuple[List[List[Any]], GIRPlan]:
    """Sweep ``k`` initial-value vectors through one GIR plan.

    The plan (and its cached int64 exponent reductions / factor
    dedup) is built at most once; each vector then pays only its
    power + combine phase.  Returns ``(rows, plan)``.
    """
    import dataclasses

    rows: List[List[Any]] = []
    for values in batch_initial:
        source = dataclasses.replace(system, initial=list(values))
        out, _stats, plan = execute(
            source,
            problem,
            plan,
            ordinary_engine=ordinary_engine,
            policy=policy,
            checked=checked,
            check_sample=check_sample,
            eval_mode=eval_mode,
        )
        rows.append(out)
    assert plan is not None
    return rows, plan
