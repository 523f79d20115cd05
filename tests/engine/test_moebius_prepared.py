"""The Moebius affine path's prepared state: value-independent work is
done once per Session, and every front door returns the same values.

A pinned ``Session.solve`` / ``Session.solve_batch`` reuses the
:func:`repro.engine.exec_moebius.prepare` state built at construction;
a fresh ``solve`` builds it per call.  These tests hold all of them to
the sequential definition of the recurrence (bit-for-bit, on data whose
float arithmetic is exact), check that path selection follows one
scalar classifier for single and batched solves, and that a pinned
request runs no per-element coefficient work.
"""

import dataclasses
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import moebius as core_moebius
from repro.core.moebius import (
    AffineRecurrence,
    RationalRecurrence,
    classify_scalars,
    run_moebius_sequential,
)
from repro.engine import Session, exec_moebius, solve

BIG = 2**60  # above 2**53: not exactly a float64


def _strict(values):
    """Exact identity of a result vector: types, and float bits."""
    return [
        (type(v), struct.pack("<d", v) if isinstance(v, float) else v)
        for v in values
    ]


def _loose(values):
    """Value identity against the sequential loop, which may hand back
    ``np.float64`` where the engine returns ``float`` and a differently
    signed NaN."""
    out = []
    for v in values:
        if isinstance(v, float):
            out.append((float, "nan" if math.isnan(v) else v))
        else:
            out.append((type(v), v))
    return out


def _engines(fn):
    """The ``solver.solves`` engine labels ``fn()`` ran (the object path
    counts ``moebius`` plus its inner ordinary solve's backend)."""
    with obs.observed() as (_tracer, registry):
        fn()
        return {
            s["labels"]["engine"]
            for s in registry.snapshot()
            if s["name"] == "solver.solves" and s.get("value")
        }


@st.composite
def recurrences(draw):
    """A small Moebius-affine recurrence plus two value rows.

    Coefficients ``a/d`` stay in ``{0, +-1/2, +-1, +-2}`` and values are
    small integers, so every float operation is exact and the fast
    path's reassociation cannot show.  ``kind`` picks the data family.
    """
    kind = draw(st.sampled_from(["float", "int", "exotic", "self_term"]))
    n = draw(st.integers(1, 16))
    m = n + draw(st.integers(0, 4))
    g = draw(st.permutations(range(m)))[:n]
    f = [draw(st.integers(0, m - 1)) for _ in range(n)]
    ints = kind == "int"
    num = (lambda x: x) if ints else float
    a = [num(draw(st.sampled_from([0, 1, -1, 2, -2]))) for _ in range(n)]
    b = [num(draw(st.integers(-8, 8))) for _ in range(n)]
    d = [num(draw(st.sampled_from([1, 2]))) for _ in range(n)]
    if kind == "float" and draw(st.booleans()):
        a[0] = 0  # an int among the float coefficients

    def row():
        out = [num(draw(st.integers(-50, 50))) for _ in range(m)]
        if kind == "float":
            for _ in range(draw(st.integers(0, 2))):
                out[draw(st.integers(0, m - 1))] = draw(
                    st.sampled_from([math.inf, -math.inf, math.nan])
                )
        elif kind == "exotic":
            # ints above 2**53 only where no iteration reads them: a read
            # would round differently in the sequential loop
            read = set(f)
            for _ in range(draw(st.integers(1, 3))):
                x = draw(st.integers(0, m - 1))
                k = draw(st.integers(-50, 50))
                out[x] = draw(st.sampled_from([
                    Fraction(k, 4),
                    np.float64(k),
                    np.float64(k) if x in read else BIG + k,
                ]))
        return out

    rec = RationalRecurrence.build(
        row(), g, f, a, b, [0] * n, d, self_term=kind == "self_term"
    )
    return kind, rec, [rec.initial, row()]


class TestFrontDoorParity:
    @given(recurrences())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_pinned_batch_fresh_and_sequential_agree(self, case):
        kind, rec, rows = case
        session = Session(rec)
        batch = session.solve_batch(rows)
        for values, batched in zip(rows, batch):
            inst = dataclasses.replace(rec, initial=list(values))
            pinned = session.solve(values).values
            fresh = solve(inst).values
            assert _strict(pinned) == _strict(fresh)
            assert _strict(batched) == _strict(fresh)
            assert _loose(pinned) == _loose(run_moebius_sequential(inst))

    def test_int_only_data_stays_on_the_object_path(self):
        rec = AffineRecurrence.build(
            list(range(9)), g=range(1, 9), f=range(8), a=[2] * 8, b=[1] * 8
        )
        session = Session(rec)
        for ran in (
            _engines(lambda: session.solve()),
            _engines(lambda: session.solve_batch([rec.initial] * 2)),
        ):
            assert "moebius" in ran and not ran & {"affine", "affine.batch"}
        assert session.solve().values == run_moebius_sequential(rec)


def _float_rec(n=40):
    return AffineRecurrence.build(
        [float(x % 7) for x in range(n + 1)],
        g=range(1, n + 1),
        f=range(n),
        a=[1.0, -1.0] * (n // 2),
        b=[float(x % 5 - 2) for x in range(n)],
    )


class TestOneClassifier:
    def test_bool_row_takes_the_same_path_batched_and_alone(self):
        # np.asarray([True, 1.5]) is float64, yet a bool makes a single
        # solve take the exact object engine: the batch must agree.
        rec = _float_rec()
        row = [True] + rec.initial[1:]
        session = Session(rec)
        alone = _engines(lambda: session.solve(row))
        batched = _engines(lambda: session.solve_batch([row, rec.initial]))
        assert "moebius" in alone and "affine" not in alone
        assert "moebius" in batched and "affine.batch" not in batched
        assert _strict(session.solve_batch([row])[0]) == _strict(
            session.solve(row).values
        )

    def test_all_int_row_does_not_stack_onto_a_float_row(self):
        rec = AffineRecurrence.build(
            list(range(9)), g=range(1, 9), f=range(8), a=[3] * 8, b=[1] * 8
        )
        floats = [float(x) for x in rec.initial]
        session = Session(rec)
        rows = session.solve_batch([floats, rec.initial])
        assert _strict(rows[1]) == _strict(session.solve(rec.initial).values)
        assert _strict(rows[0]) == _strict(session.solve(floats).values)

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, 2, 3.5],
            [1, 2, 3],
            [True, 1.5],
            [np.bool_(True), 2.0],
            [np.float64(1.0), np.int32(2)],
            [np.float32(1.0), 2.0],
            [Fraction(1, 2), 1.0],
            ["x", 1.0],
            [],
        ],
    )
    def test_classifier_matches_the_isinstance_rules(self, values):
        def castable(x):
            return isinstance(x, (int, float, np.integer, np.floating)) and (
                not isinstance(x, (bool, np.bool_))
            )

        kinds = classify_scalars(values)
        assert kinds.castable == all(castable(x) for x in values)
        assert kinds.has_float == any(
            isinstance(x, (float, np.floating)) for x in values
        )
        assert kinds.only_float == all(type(x) is float for x in values)


class TestPreparedOnce:
    def test_pinned_requests_run_no_per_element_coefficient_work(
        self, monkeypatch
    ):
        rec = _float_rec(64)
        session = Session(rec)
        expected = solve(rec).values

        def boom(*args, **kwargs):
            raise AssertionError("per-element work on a pinned request")

        monkeypatch.setattr(
            core_moebius.RationalRecurrence, "coefficient_matrix", boom
        )
        monkeypatch.setattr(exec_moebius, "prepare", boom)
        monkeypatch.setattr(exec_moebius, "_affine_base", boom)
        monkeypatch.setattr(RationalRecurrence, "validate", boom)
        assert session.solve().values == expected
        assert session.solve_batch([rec.initial] * 3) == [expected] * 3

    def test_prepared_arrays_match_the_per_element_reference(self):
        rec = RationalRecurrence.build(
            [0.0] * 6,
            g=range(1, 6),
            f=range(5),
            a=[3, 0.1, np.float64(7.0), -5, 2**40],
            b=[1, -0.3, 2.5, 7, 11],
            c=[0] * 5,
            d=[3, 7.0, -1, np.int64(9), 3],
        )
        prep = exec_moebius.prepare(rec)
        a, b = exec_moebius._affine_base(rec)
        assert prep.a.tobytes() == a.tobytes()
        assert prep.b.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "coeff", [np.float32(0.1), 2**53 + 1, Fraction(1, 3)]
    )
    def test_unvectorizable_coefficients_keep_the_reference_loop(
        self, coeff
    ):
        rec = RationalRecurrence.build(
            [0.5] * 4, g=range(1, 4), f=range(3),
            a=[coeff, 1.0, 1.0], b=[1.0] * 3, c=[0] * 3, d=[3, 1, 1],
        )
        assert exec_moebius.prepare(rec).a is None
        plan = exec_moebius.build_plan(rec, "fp")
        a, b = exec_moebius.affine_coefficients(rec, plan.ordinary)
        ref_a, _ = exec_moebius._affine_base(rec)
        assert a[1:].tobytes() == ref_a[1:].tobytes()

    def test_mutated_maps_are_not_served_stale_state(self):
        rec = _float_rec(8)
        prep = exec_moebius.prepare(rec)
        other = dataclasses.replace(rec, a=list(rec.a))
        assert prep.describes(dataclasses.replace(rec, initial=list(rec.initial)))
        assert not prep.describes(other)


class TestBatchGuard:
    def test_overflowing_row_escalates_like_its_single_solve(self):
        # Composing 1024 doublings overflows the map's slope to inf, and
        # inf * 0 (the zero value it is applied to) is NaN in the float
        # sweep; the guard sends the row to the exact engine -- batched
        # exactly as alone.
        n = 1100
        rec = AffineRecurrence.build(
            [0.0] * (n + 1), g=range(1, n + 1), f=range(n),
            a=[2.0] * n, b=[0.0] * n,
        )
        session = Session(rec)
        alone = session.solve().values
        assert alone == run_moebius_sequential(rec) == [0.0] * (n + 1)
        for row in session.solve_batch([rec.initial, rec.initial]):
            assert _strict(row) == _strict(alone)
