"""Seeded workload inputs, the frozen reference loops and the output checks.

Every workload is built from ``--seed`` alone; the program under test
receives only the generated arrays.  Each workload owns one plain-Python
loop with its operator written inline.  That loop is both the
benchmark's normaliser (every end-to-end timing is divided by an
adjacent run of it) and its oracle (every timed output is checked
against it, outside the timed region).

The loops are frozen: editing one rescales every ``*_vs_seq`` metric.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.core import (
    FLOAT_ADD,
    OrdinaryIRSystem,
    random_gir_system,
)
from repro.core.moebius import AffineRecurrence

EPS = sys.float_info.epsilon
#: Distinct payloads per workload (the coalescer dedups repeats).  The
#: float workload uses fewer: each needs its own double-double oracle.
HOT_SET = 8
FLOAT_HOT_SET = 2
#: Open-loop offered rate of each workload, as a multiple of the
#: reference loop's rate ``1 / ref.seq_s``.
CHAIN_RATE = 0.12
GIR_RATE = 0.1
AFFINE_RATE = 0.008


# -- frozen reference loops ---------------------------------------------------


def loop_add(values, g, f):
    """``A[g] = A[f] + A[g]`` -- ordinary IR over float addition."""
    A = list(values)
    for gi, fi in zip(g, f):
        A[gi] = A[fi] + A[gi]
    return A


def loop_mod97(values, g, f, h):
    """``A[g] = (A[f] + A[h]) % 97`` -- GIR over addition mod 97."""
    A = list(values)
    for gi, fi, hi in zip(g, f, h):
        A[gi] = (A[fi] + A[hi]) % 97
    return A


def loop_affine(values, g, f, a, b):
    """``X[g] = a*X[f] + b`` -- the affine Moebius recurrence."""
    X = list(values)
    for gi, fi, ai, bi in zip(g, f, a, b):
        X[gi] = ai * X[fi] + bi
    return X


def loop_add_double_double(values, g, f):
    """``loop_add`` carried in double-double arithmetic (TwoSum).

    Its error is O(eps^2) of the absolute sum, so the float checks can
    hold the program to ROADMAP aim 3's ``eps*log n*sum|x|`` bound
    instead of inheriting the plain loop's own ``n*eps`` error.
    """
    H = list(values)
    L = [0.0] * len(H)
    for gi, fi in zip(g, f):
        a = H[fi]
        b = H[gi]
        s = a + b
        bb = s - a
        e = (a - (s - bb)) + (b - bb) + L[fi] + L[gi]
        t = s + e
        L[gi] = e - (t - s)
        H[gi] = t
    return H


# -- workloads ----------------------------------------------------------------


def index_map(values) -> array:
    """An index map as the reference loops read it: a flat int64 array.

    A list would hold one int object per index, placed wherever the
    process's heap had room when the list was built, so the loop's
    memory traffic -- and its time -- would depend on the heap's history
    (it moved 3x between processes on ``gir_random``).  Array elements
    are contiguous and their int objects are made on the fly.
    """
    return array("q", np.asarray(values, dtype=np.int64).tobytes())


def digest(values) -> str:
    """Content digest of a result vector, as ``/v1/solve`` replies carry
    it with ``reply="digest"``: blake2b-128 of the float64 bytes."""
    payload = np.asarray(values, dtype=np.float64).tobytes()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


@dataclass
class Workload:
    name: str
    n: int
    #: The problem handed to the program (index maps, operator, values).
    system: Any
    #: Payloads: sparse patches of ``system.initial``.  Timed solves
    #: cycle through the patched rows, served requests through the
    #: patches themselves.
    patches: Sequence[Dict[int, Any]]
    #: The frozen loop bound to this workload's index maps.
    ref: Callable[[Sequence[Any]], list]
    #: ``True`` when outputs are exact (checked for equality).
    exact: bool
    #: Rows per ``Session.solve_batch`` call in the batch measurement.
    batch_rows: int = 4
    #: Runs of ``ref`` per reference sample, which keeps the fastest
    #: (host contention only adds time, and short loops jitter most).
    ref_reps: int = 2
    #: Open-loop offered rate, as a multiple of ``1 / ref.seq_s``.
    serve_rate_x_seq: float = 0.0
    #: What the check of a float workload is held to (for the report).
    bound: str = "exact"

    def __post_init__(self) -> None:
        self.rows = []
        for patch in self.patches:
            row = list(self.system.initial)
            for idx, val in patch.items():
                row[idx] = val
            self.rows.append(row)

    def checker(self, values: Sequence[Any]) -> Callable[[Any], bool]:
        """A predicate accepting the program's output for ``values``."""
        if self.exact:
            expected = np.asarray(self.ref(values), dtype=np.float64)

            def check(out) -> bool:
                got = np.asarray(out, dtype=np.float64)
                return got.shape == expected.shape and bool(
                    np.array_equal(got, expected)
                )

            return check
        g, f = self.system.g.tolist(), self.system.f.tolist()
        exact = np.asarray(loop_add_double_double(values, g, f))
        scale = np.asarray(loop_add([abs(v) for v in values], g, f))
        tol = EPS * (math.ceil(math.log2(self.n)) + 2) * scale * (1 + 1e-9)

        def check(out) -> bool:
            got = np.asarray(out, dtype=np.float64)
            if got.shape != exact.shape:
                return False
            with np.errstate(invalid="ignore"):
                return bool(np.all(np.abs(got - exact) <= tol))

        return check


def _patches(rng, m: int, count: int, draw) -> List[Dict[int, Any]]:
    """``count`` sparse payloads, each overwriting 4 random cells."""
    return [
        {int(c): v for c, v in zip(rng.choice(m, 4, replace=False), draw(4))}
        for _ in range(count)
    ]


def _uniform(rng):
    return lambda k: rng.uniform(-1.0, 1.0, k).tolist()


def chain_1m(seed: int) -> Workload:
    """One ordinary-IR chain, n = 1,000,000, float addition."""
    rng = np.random.default_rng(seed)
    n = 1_000_000
    system = OrdinaryIRSystem.build(
        rng.uniform(-1.0, 1.0, n + 1).tolist(),
        np.arange(1, n + 1), np.arange(n), FLOAT_ADD,
    )
    g, f = index_map(system.g), index_map(system.f)
    return Workload(
        name="chain_1m",
        n=n,
        system=system,
        patches=_patches(rng, n + 1, FLOAT_HOT_SET, _uniform(rng)),
        ref=lambda values: loop_add(values, g, f),
        exact=False,
        batch_rows=2,
        serve_rate_x_seq=CHAIN_RATE,
        bound="|out-exact| <= eps*(ceil(log2 n)+2)*sum|x|",
    )


def gir_random(seed: int) -> Workload:
    """``random_gir_system(100_000)`` over addition mod 97."""
    rng = np.random.default_rng(seed)
    system = random_gir_system(100_000, seed=seed)
    g, f, h = (index_map(x) for x in (system.g, system.f, system.h))
    return Workload(
        name="gir_random",
        n=system.n,
        system=system,
        patches=_patches(
            rng, system.m, HOT_SET, lambda k: rng.integers(0, 97, k).tolist()
        ),
        ref=lambda values: loop_mod97(values, g, f, h),
        exact=True,
        ref_reps=5,
        serve_rate_x_seq=GIR_RATE,
    )


def affine_serve(seed: int) -> Workload:
    """The serving benchmark's affine chain, n = 16,384.

    ``a`` is +-1 and ``b``, the initial values and every patch are small
    integers, so every output is an integer-valued float and digests
    compare exactly.
    """
    rng = np.random.default_rng(seed)
    n = 16_384
    a = rng.choice([-1.0, 1.0], n).tolist()
    b = rng.integers(-3, 4, n).astype(np.float64).tolist()
    initial = rng.integers(-50, 51, n + 1).astype(np.float64).tolist()
    system = AffineRecurrence.build(
        initial, g=np.arange(1, n + 1), f=np.arange(n), a=a, b=b
    )
    g, f = index_map(system.g), index_map(system.f)
    heads = rng.permutation(np.arange(-50, 51))[:HOT_SET]
    return Workload(
        name="affine_serve",
        n=n,
        system=system,
        patches=[{0: float(v)} for v in heads],
        ref=lambda values: loop_affine(values, g, f, a, b),
        exact=True,
        ref_reps=10,
        serve_rate_x_seq=AFFINE_RATE,
    )


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "chain_1m": chain_1m,
    "gir_random": gir_random,
    "affine_serve": affine_serve,
}
