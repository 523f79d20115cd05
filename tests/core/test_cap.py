"""Unit and property tests for CAP (Counting All Paths)."""

import math

import pytest
from hypothesis import given, settings

from repro.core import GIRSystem, random_gir_system
from repro.core.cap import (
    _dp_forward,
    cap_iterations,
    count_all_paths,
    count_paths_dp,
)
from repro.core.depgraph import DependenceGraph, build_dependence_graph
from repro.core.operators import modular_add
from repro.core.traces import leaf_counts
from repro.engine import clear_plan_cache, solve

from ..conftest import gir_systems


def fib_graph(n):
    op = modular_add(97)
    sys_ = GIRSystem.build(
        [1] * (n + 2),
        [i + 2 for i in range(n)],
        [i + 1 for i in range(n)],
        [i for i in range(n)],
        op,
    )
    return sys_, build_dependence_graph(sys_)


class TestCAPCorrectness:
    def test_fibonacci_powers(self):
        n = 20
        _, g = fib_graph(n)
        cap = count_all_paths(g)
        fib = [1, 1]
        for _ in range(n + 2):
            fib.append(fib[-1] + fib[-2])
        assert cap.powers[n - 1] == {g.n + 0: fib[n - 1], g.n + 1: fib[n]}

    def test_matches_dp_ground_truth(self):
        _, g = fib_graph(12)
        assert count_all_paths(g).powers == count_paths_dp(g)

    def test_matches_trace_leaf_counts(self):
        sys_, g = fib_graph(10)
        cap = count_all_paths(g)
        lc = leaf_counts(sys_)
        for i in range(g.n):
            assert cap.powers_by_cell(g, i) == lc[i]

    def test_double_chain_powers_of_two(self):
        # the paper's CAP(G) example: a double chain v1 => v2 => ... vn
        # gives 2^(i-1) paths from the bottom to node i
        op = modular_add(97)
        n = 8
        sys_ = GIRSystem.build(
            [1] * (n + 1),
            [i + 1 for i in range(n)],
            [i for i in range(n)],
            [i for i in range(n)],  # h = f: double edges
            op,
        )
        g = build_dependence_graph(sys_)
        cap = count_all_paths(g)
        for i in range(n):
            assert cap.powers[i] == {g.n + 0: 2 ** (i + 1)}

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=60)
    def test_property_cap_equals_dp(self, sys_):
        g = build_dependence_graph(sys_)
        assert count_all_paths(g).powers == count_paths_dp(g)

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=40)
    def test_property_cap_equals_leaf_counts(self, sys_):
        g = build_dependence_graph(sys_)
        cap = count_all_paths(g)
        lc = leaf_counts(sys_)
        for i in range(g.n):
            assert cap.powers_by_cell(g, i) == lc[i]


class TestMethodParity:
    """Doubling rounds and the forward DP count the same paths."""

    @pytest.mark.parametrize("method", ("edges", "dp"))
    def test_explicit_methods_agree(self, method):
        _, g = fib_graph(24)
        result = count_all_paths(g, method=method)
        assert result.powers == count_paths_dp(g)
        # the DP reports the rounds the doubling schedule runs
        assert result.iterations == count_all_paths(g, method="edges").iterations

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=30)
    def test_property_methods_agree(self, sys_):
        g = build_dependence_graph(sys_)
        want = count_paths_dp(g)
        for method in ("auto", "edges", "dp"):
            assert count_all_paths(g, method=method).powers == want
        assert list(cap_iterations(g))[-1] == want

    @given(gir_systems(distinct_g=True))
    @settings(max_examples=30)
    def test_property_dp_reports_the_doubling_rounds(self, sys_):
        # the DP takes the depth in its own forward pass
        g = build_dependence_graph(sys_)
        assert _dp_forward(g)[1] == g.depth()
        dp = count_all_paths(g, method="dp")
        assert dp.iterations == count_all_paths(g, method="edges").iterations

    def test_engine_plans_without_graph_rescans(self, monkeypatch):
        # the engine's graph is acyclic by construction: planning pays
        # neither the cycle check nor a separate depth pass
        _, g = fib_graph(40)
        want = count_all_paths(g, method="edges").iterations
        sys_ = random_gir_system(300, seed=5)
        want_random = count_all_paths(
            build_dependence_graph(sys_), method="edges"
        ).iterations

        def boom(self):
            raise AssertionError("graph rescanned")

        monkeypatch.setattr(DependenceGraph, "validate_acyclic", boom)
        monkeypatch.setattr(DependenceGraph, "depth", boom)
        assert count_all_paths(g, validate=False).iterations == want
        clear_plan_cache()
        plan = solve(sys_).plan
        assert plan.cap_iterations == want_random
        with pytest.raises(AssertionError, match="rescanned"):
            count_all_paths(g)  # the public default still validates

    def test_object_promotion_stays_exact(self):
        # fib(121) >> 2**63: labels are exact Python ints on both the
        # doubling and the DP path.
        n = 120
        _, g = fib_graph(n)
        cap = count_all_paths(g, method="edges")
        assert cap.powers == count_paths_dp(g)
        top = max(cap.powers[n - 1].values())
        assert top.bit_length() > 63  # genuinely beyond int64

    def test_unknown_method_rejected(self):
        _, g = fib_graph(4)
        with pytest.raises(ValueError):
            count_all_paths(g, method="quantum")


class TestConvergence:
    def test_iteration_bound_logarithmic(self):
        for n in (1, 2, 3, 4, 15, 16, 17, 63):
            _, g = fib_graph(n)
            cap = count_all_paths(g)
            assert cap.iterations <= max(1, math.ceil(math.log2(g.depth())))

    def test_zero_iterations_when_flat(self):
        # every operand is a leaf: converged before any iteration
        op = modular_add(97)
        sys_ = GIRSystem.build([1, 2, 3, 4], [3], [0], [1], op)
        g = build_dependence_graph(sys_)
        assert count_all_paths(g).iterations == 0

    def test_max_iterations_cap(self):
        _, g = fib_graph(32)
        partial = count_all_paths(g, max_iterations=1)
        assert partial.iterations == 1
        full = count_all_paths(g)
        assert full.powers != partial.powers

    def test_storyboard_converges_and_is_prefix_consistent(self):
        _, g = fib_graph(9)
        frames = list(cap_iterations(g))
        # first frame is the raw dependence edges
        assert frames[0][0] == g.out_edges(0)
        # last frame equals the converged result
        assert frames[-1] == count_all_paths(g).powers
        # every frame only ever points "down" (labels positive)
        for frame in frames:
            for e in frame:
                assert all(x > 0 for x in e.values())

    def test_edge_work_positive_only_when_iterating(self):
        _, g = fib_graph(10)
        cap = count_all_paths(g)
        assert cap.edge_work > 0
        op = modular_add(97)
        flat = GIRSystem.build([1, 2, 3], [2], [0], [1], op)
        cap0 = count_all_paths(build_dependence_graph(flat))
        assert cap0.edge_work == 0
