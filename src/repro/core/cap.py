"""CAP -- Counting All Paths (paper, Definition 1 and Figs 7-9).

Given the GIR dependence DAG ``G``, ``CAP(G)`` is the labeled graph
``G'`` whose edge ``<i, j>[x]`` (``i`` a final node, ``j`` a leaf)
exists iff there are exactly ``x`` distinct paths from ``i`` to ``j``
in ``G``.  The label ``x`` is precisely the power of the initial value
``A[j]`` inside the trace of ``A'[g(i)]``, so CAP is the heart of the
GIR solver.

The parallel algorithm runs ``ceil(log2(depth))`` *path-doubling*
iterations.  Every iteration transforms the current edge set by, for
each node ``u`` in parallel:

1. **Paths multiplication** (Fig 7): each edge ``<u, v>[x]`` whose
   target ``v`` is not a leaf is composed with each of ``v``'s edges
   ``<v, w>[y]``, producing ``<u, w>[x*y]``; the used edge ``<u, v>``
   is dropped (the paper instead marks consumed edges for deletion --
   same effect, different bookkeeping).
2. **Paths addition** (Fig 8): parallel edges to the same target are
   merged by summing their labels.

Invariant: after iteration ``t``, every edge of ``u`` either reaches a
leaf and carries the exact path count, or represents all path-prefixes
of length exactly ``2^t`` -- so edge lengths double each round, giving
the logarithmic iteration bound.

The rule for picking an implementation: **the DP plans; doubling runs
when its rounds are the output.**  Doubling pays off only with
``O(n^2)`` processors (each round copies every live prefix, so a
chain of depth ``d`` costs ``O(n*d)`` label work), while the forward
dynamic program (:func:`count_paths_dp`) visits every ``(node, leaf)``
pair once on one host.  So the unbounded :func:`count_all_paths`
runs the DP and reports the ``ceil(log2(depth))`` rounds the doubling
schedule would need.  Doubling runs where the rounds themselves are
wanted: runs bounded by ``max_iterations`` or a ``SolvePolicy``
(partial states and enforcer budgets are doubling-round notions),
the Fig-9 storyboard :func:`cap_iterations`, and the PRAM cost profile
(``method="edges"``, for the per-superstep work).  Labels are exact
Python ints on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..obs import get_registry, get_tracer, maybe_span
from ..resilience.policy import SolvePolicy
from .depgraph import DependenceGraph

__all__ = [
    "CAPResult",
    "count_all_paths",
    "cap_iterations",
    "count_paths_dp",
]

EdgeSet = List[Dict[int, int]]  # per final node: {target: path count}

_METHODS = ("auto", "edges", "dp")


@dataclass
class CAPResult:
    """Output of the CAP computation.

    Attributes
    ----------
    powers:
        ``powers[i]`` maps leaf node ids to path counts from final node
        ``i`` -- i.e. the multiset of initial values (with
        multiplicities) in the trace of iteration ``i``.
    iterations:
        Number of path-doubling iterations executed (when the DP ran:
        the rounds the doubling schedule would need,
        ``ceil(log2(depth))``).
    edge_work:
        Total number of edge compositions performed across all
        iterations, or the DP's multiply-accumulates (the algorithm's
        work measure, consumed by the PRAM cost accounting).
    work_per_iteration:
        Edge compositions per doubling iteration -- the per-superstep
        active counts the processor-bounded (Brent) accounting needs.
        Empty when the DP ran instead of doubling rounds.
    """

    powers: EdgeSet
    iterations: int
    edge_work: int = 0
    work_per_iteration: List[int] = field(default_factory=list)

    def powers_by_cell(self, graph: DependenceGraph, i: int) -> Dict[int, int]:
        """Trace powers of iteration ``i`` keyed by array *cell*."""
        return {graph.leaf_cell(t): x for t, x in self.powers[i].items()}

    def powers_by_cell_all(self, graph: DependenceGraph) -> List[Dict[int, int]]:
        """Trace powers of **every** iteration keyed by array cell.

        One pass over the converged edge sets -- no per-row method
        dispatch -- so deriving the full power table is O(total edges).
        """
        n = graph.n
        return [{t - n: x for t, x in row.items()} for row in self.powers]


def _initial_edges(graph: DependenceGraph) -> EdgeSet:
    return [graph.out_edges(i) for i in range(graph.n)]


def _doubling_step(edges: EdgeSet, graph: DependenceGraph) -> Tuple[EdgeSet, int]:
    """One synchronous CAP iteration over all nodes.

    Returns ``(new_edges, compositions)``; reads only the previous
    iteration's edge sets (PRAM semantics).
    """
    n = graph.n
    new_edges: EdgeSet = [dict() for _ in range(n)]
    work = 0
    for u in range(n):
        acc = new_edges[u]
        for v, x in edges[u].items():
            if v >= n:  # leaf: complete path, keep as is
                acc[v] = acc.get(v, 0) + x
            else:
                for w, y in edges[v].items():  # paths multiplication
                    acc[w] = acc.get(w, 0) + x * y  # paths addition
                    work += 1
    return new_edges, work


def _doubling_rounds(
    graph: DependenceGraph,
    edges: EdgeSet,
    max_iterations: Optional[int] = None,
    enforcer=None,
) -> Iterator[Tuple[EdgeSet, int]]:
    """Run doubling rounds from ``edges`` until every edge reaches a
    leaf, ``max_iterations`` rounds have run, or ``enforcer`` refuses
    the next one; yield ``(edges, compositions)`` after each round.

    The one doubling loop: it writes the ``cap.iteration`` span and the
    ``cap.*`` metrics for every round it runs.
    """
    tracer = get_tracer()
    registry = get_registry()
    n = graph.n
    iteration = 0
    while not all(all(v >= n for v in e) for e in edges):
        if max_iterations is not None and iteration >= max_iterations:
            return
        if enforcer is not None and not enforcer.admit():
            return
        with maybe_span(tracer, "cap.iteration", iteration=iteration) as isp:
            edges, work = _doubling_step(edges, graph)
            if isp is not None:
                isp.set_attribute("compositions", work)
        if registry is not None:
            registry.counter("cap.iterations").inc()
            registry.counter("cap.edge_work").inc(work)
            registry.gauge("cap.edges_live").set(sum(len(e) for e in edges))
        iteration += 1
        yield edges, work


def _dp_work(graph: DependenceGraph, counts: EdgeSet) -> int:
    """The DP's multiply-accumulate count: each node pays one per leaf
    count of every distinct non-leaf operand target."""
    n = graph.n
    sizes = np.fromiter((len(c) for c in counts), dtype=np.int64, count=n)
    tf = np.asarray(graph.target_f)
    th = np.asarray(graph.target_h)
    f_open = tf < n
    h_open = (th < n) & (th != tf)
    return int(sizes[tf[f_open]].sum() + sizes[th[h_open]].sum())


def count_all_paths(
    graph: DependenceGraph,
    *,
    max_iterations: Optional[int] = None,
    policy: Optional[SolvePolicy] = None,
    validate: bool = True,
    method: str = "auto",
) -> CAPResult:
    """Run CAP to convergence (all edges reach leaves).

    ``max_iterations`` is a safety valve for tests; the algorithm
    provably converges within ``ceil(log2(graph.depth()))`` iterations
    -- *for a DAG*.  A cyclic graph would double forever, so the graph
    is checked up front (``validate=False`` skips the O(n + e) check
    for graphs known acyclic by construction) and a cycle raises
    :class:`~repro.errors.CyclicDependenceError` naming it.

    ``policy`` bounds the doubling loop; on exhaustion it raises,
    falls back to the sequential :func:`count_paths_dp` ground truth,
    or returns the current partially doubled edge sets, per its
    ``on_exhaustion`` behaviour.

    ``method`` is ``"edges"`` (path-doubling rounds, with their
    per-round work), ``"dp"`` (the forward DP, no doubling rounds) or
    ``"auto"`` (the DP).  A run bounded by ``max_iterations`` or
    ``policy`` always doubles.  All methods produce identical
    ``powers``.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown CAP method {method!r}; expected one of {_METHODS}"
        )
    if validate:
        graph.validate_acyclic()
    enforcer = policy.enforcer("cap") if policy is not None else None
    per_iteration: List[int] = []
    with maybe_span(get_tracer(), "cap.count_all_paths", n=graph.n) as root:
        if method != "edges" and enforcer is None and max_iterations is None:
            edges, depth = _dp_forward(graph)
            total_work = _dp_work(graph, edges)
            iterations = (depth - 1).bit_length() if depth > 1 else 0
            registry = get_registry()
            if registry is not None:
                registry.counter("cap.edge_work").inc(total_work)
        else:
            edges = _initial_edges(graph)
            for edges, work in _doubling_rounds(
                graph, edges, max_iterations, enforcer
            ):
                per_iteration.append(work)
            iterations = len(per_iteration)
            total_work = sum(per_iteration)
            if enforcer is not None and enforcer.should_fallback:
                edges = count_paths_dp(graph)
        if root is not None:
            root.set_attribute("iterations", iterations)
            root.set_attribute("edge_work", total_work)
    return CAPResult(
        powers=edges,
        iterations=iterations,
        edge_work=total_work,
        work_per_iteration=per_iteration,
    )


def cap_iterations(graph: DependenceGraph) -> Iterator[EdgeSet]:
    """Yield the edge set before the first iteration and after every
    subsequent one, until convergence -- the Fig-9 storyboard."""
    edges = _initial_edges(graph)
    yield [dict(e) for e in edges]
    for edges, _work in _doubling_rounds(graph, edges):
        yield [dict(e) for e in edges]


def count_paths_dp(graph: DependenceGraph) -> EdgeSet:
    """Sequential ground truth: leaf path counts by forward dynamic
    programming (operands always point to earlier iterations), entirely
    independent of the doubling algorithm.  O(n * leaves)."""
    return _dp_forward(graph)[0]


def _dp_forward(graph: DependenceGraph) -> Tuple[EdgeSet, int]:
    """:func:`count_paths_dp` plus the graph's depth (what
    :meth:`DependenceGraph.depth` returns), taken in the same pass."""
    n = graph.n
    counts: EdgeSet = [dict() for _ in range(n)]
    depths = [0] * n
    for i in range(n):
        acc: Dict[int, int] = {}
        below = 0
        for t, mult in graph.out_edges(i).items():
            if t >= n:
                acc[t] = acc.get(t, 0) + mult
            else:
                if depths[t] > below:
                    below = depths[t]
                for leaf, x in counts[t].items():
                    acc[leaf] = acc.get(leaf, 0) + mult * x
        counts[i] = acc
        depths[i] = below + 1
    return counts, max(depths, default=0)
