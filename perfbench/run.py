"""Benchmark runner: fresh, pinned, batched and served solves, each timed
against an interleaved run of the workload's own sequential loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload chain_1m --seed 1 --seconds 20 --trace 0

Workloads: ``chain_1m``, ``gir_random``, ``affine_serve``
(see ``perfbench/workloads.py`` and ``BENCHMARK.json``).  The program is
imported from ``src/`` of the checkout and used only through its public
functions; it receives only the arrays generated from ``--seed``.

Every end-to-end timing is a ratio: a program time divided by the mean
of the reference-loop runs just before and just after it, in the same
process, so the part of a host speed drift that moves both cancels.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the
traced run: it measures once untraced and once with ``repro.obs``
enabled and spans recorded around every call, snapshots the program's
counters, times single layers through their public calls, and prints
the per-layer metrics plus the tracing overhead of each end-to-end
ratio.  Spans are written to ``.perfbench/`` at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs are
checked against the reference loop outside every timed region.  The
exit code is 0 when the run completed (correct or not) and non-zero,
with no JSON line, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per run, ``setup_s`` being their median: at least the first
#: number, and more while all of them took under ``SETUP_MORE_S``.
SETUP_REPEATS = (3, 7)
SETUP_MORE_S = 4.0
#: Rounds per measured pass; see ``Bench.measure``.
ROUNDS = 4
#: Share of each round given to each kind of call.
SHARES = {"fresh": 0.25, "planned": 0.3, "batch": 0.15,
          "open": 0.17, "closed": 0.13}
#: Fewest calls of each kind per round, whatever the time budget.
MIN_PER_ROUND = {"fresh": 1, "planned": 3, "batch": 1}
#: The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
#: Open-loop bursts carry at least this many requests each; closed-loop
#: bursts last at least ``CLOSED_REFS`` reference loops.
OPEN_BURST_REQUESTS = 3
OPEN_BURST_S = 1.0
CLOSED_BURST_S = 0.5
CLOSED_REFS = 12


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the
    program from there, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
                 f"not from {SRC}")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail(xs) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with
    ``TAIL_BEYOND`` samples beyond it, never below the median."""
    ys = sorted(xs)
    idx = max(len(ys) - TAIL_BEYOND - 1, len(ys) // 2)
    return ys[idx], (idx + 1) / len(ys)


class Tally:
    """Timed operations attempted and how many returned a correct result
    (checked outside the timed region)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class Bench:
    """One workload, set up and ready: a pinned ``Session`` and a
    listening server over the same problem."""

    def __init__(self, name: str, seed: int, spans):
        from workloads import WORKLOADS
        from serving import Served

        self.spans = spans
        times: List[float] = []
        last = None
        while len(times) < SETUP_REPEATS[0] or (
                len(times) < SETUP_REPEATS[1] and sum(times) < SETUP_MORE_S):
            if last is not None:
                last[2].close()
                last = None
                gc.collect()
            with spans.span("setup"):
                t0 = time.perf_counter()
                wl = WORKLOADS[name](seed)
                served = Served(wl.system)
                session = served.session
                if session.plan is None:
                    session.solve()  # GIR plans are pinned by the first solve
                served.warm()
                times.append(time.perf_counter() - t0)
            last = (wl, session, served)
        self.setup_times = times
        self.wl, self.session, self.served = last
        self.batch_rows = self.wl.batch_rows
        self.tally = Tally()
        self.refs: List[float] = []
        self._ref_k = 0
        self._op_k = {"fresh": 0, "planned": 0, "batch": 0, "open": 0,
                      "closed": 0}
        self._prepare_checks()

    def close(self) -> None:
        self.served.close()

    # -- oracle --------------------------------------------------------------

    def _prepare_checks(self) -> None:
        """Per-row output predicates and per-patch reply digests, built
        once before anything is timed."""
        from workloads import digest

        wl = self.wl
        self.sources = [
            dataclasses.replace(wl.system, initial=row) for row in wl.rows
        ]
        self.checks = [wl.checker(row) for row in wl.rows]
        self.digests = []
        for i, row in enumerate(wl.rows):
            if wl.exact:
                self.digests.append(digest(wl.ref(row)))
                continue
            # Float replies must be bit-identical to the pinned solve of
            # the same row, which in turn must meet the float bound.
            out = self.session.solve(row).values
            if not self.checks[i](out):
                self.tally.notes.append(
                    f"pinned solve of row {i} outside {wl.bound}"
                )
            self.digests.append(digest(out))

    # -- reference loop ------------------------------------------------------

    def ref_sample(self) -> float:
        """Seconds of one reference loop: the best of ``ref_reps`` runs
        (host contention only ever adds time)."""
        wl = self.wl
        values = wl.rows[self._ref_k % len(wl.rows)]
        self._ref_k += 1
        best = math.inf
        with self.spans.span("ref.loop", reps=wl.ref_reps):
            for _ in range(wl.ref_reps):
                t0 = time.perf_counter()
                wl.ref(values)
                best = min(best, time.perf_counter() - t0)
        self.refs.append(best)
        return best

    # -- program calls -------------------------------------------------------

    def op_fresh(self, k: int):
        from repro.engine import clear_plan_cache, solve

        source = self.sources[k % len(self.sources)]
        with self.spans.span("engine.api.fresh_solve"):
            clear_plan_cache()
            out = solve(source).values
        return [(k, out)]

    def op_planned(self, k: int):
        row = self.wl.rows[k % len(self.wl.rows)]
        with self.spans.span("engine.session.solve"):
            out = self.session.solve(row).values
        return [(k, out)]

    def op_batch(self, k: int):
        idx = [k + i for i in range(self.batch_rows)]
        rows = self.wl.rows
        with self.spans.span("engine.session.solve_batch",
                             rows=self.batch_rows):
            outs = self.session.solve_batch([rows[i % len(rows)] for i in idx])
        return list(zip(idx, outs))

    def paired(self, samples: list, kind: str, op: Callable, budget: float) -> None:
        """Program calls alternating with reference loops, for
        ``budget`` seconds: appends ``(call_s, ref_before_s,
        ref_after_s)`` per call."""
        deadline = time.perf_counter() + budget
        before = self.ref_sample()
        done = 0
        while done < MIN_PER_ROUND[kind] or time.perf_counter() < deadline:
            k = self._op_k[kind]
            self._op_k[kind] += 1
            gc.collect()
            with self.spans.span(f"sample.{kind}", trace=f"{kind}-{k}"):
                t0 = time.perf_counter()
                outs = op(k)
                dt = time.perf_counter() - t0
            ok = all(self.checks[i % len(self.checks)](out) for i, out in outs)
            self.tally.record(ok, f"{kind} call {k}")
            after = self.ref_sample()
            samples.append((dt, before, after))
            before = after
            done += 1

    # -- serving -------------------------------------------------------------

    def _check_replies(self, replies) -> List[bool]:
        oks = []
        for r in replies:
            ok = r.doc is not None and r.doc.get("digest") == self.digests[r.payload]
            self.tally.record(ok, f"serve payload {r.payload}: {r.error or 'digest mismatch'}")
            oks.append(ok)
        return oks

    def serve_open(self, raw: Dict[str, list], budget: float) -> None:
        """Open-loop bursts at ``serve_rate_x_seq / ref`` requests per
        second between reference loops, for ``budget`` seconds.  Appends
        ``(latency_s, ref_before_s, ref_after_s)`` per request, latency
        timed from when the request was due (a failed request is
        infinitely late)."""
        from serving import open_loop

        deadline = time.perf_counter() + budget
        before = self.ref_sample()
        while True:
            rate = self.wl.serve_rate_x_seq / before
            burst = max(OPEN_BURST_S, OPEN_BURST_REQUESTS / rate)
            with self.spans.span("serve.open_burst", rate=rate) as sid:
                replies = open_loop(
                    self.served, self.wl.patches, rate, burst,
                    start_index=self._op_k["open"], spans=self.spans,
                    parent=sid,
                )
            self._op_k["open"] += len(replies)
            after = self.ref_sample()
            for r, ok in zip(replies, self._check_replies(replies)):
                raw["open"].append(
                    (r.done - r.due if ok else math.inf, before, after))
            raw["open_replies"].extend(replies)
            before = after
            if time.perf_counter() >= deadline:
                return

    def serve_closed(self, raw: Dict[str, list], budget: float) -> None:
        """Closed-loop bursts on every connection between reference
        loops, for ``budget`` seconds.  Appends ``(requests, seconds,
        ref_before_s, ref_after_s)`` per connection and burst, where
        ``seconds`` runs to that connection's last reply; a burst with a
        failed request counts no requests."""
        from serving import closed_loop

        deadline = time.perf_counter() + budget
        before = self.ref_sample()
        while True:
            burst = max(CLOSED_BURST_S, CLOSED_REFS * before)
            with self.spans.span("serve.closed_burst") as sid:
                replies, per_connection = closed_loop(
                    self.served, self.wl.patches, burst,
                    start_index=self._op_k["closed"], spans=self.spans,
                    parent=sid,
                )
            self._op_k["closed"] += len(replies)
            after = self.ref_sample()
            ok = all(self._check_replies(replies))
            for requests, seconds in per_connection:
                raw["closed"].append(
                    (requests if ok else 0, seconds, before, after))
            raw["closed_replies"].extend(replies)
            before = after
            if time.perf_counter() >= deadline:
                return

    # -- one measured pass -----------------------------------------------------

    def measure(self, seconds: float) -> Dict[str, list]:
        """``ROUNDS`` rounds, each running every kind of call for its
        share of the round, so a host slowdown lasting a few seconds
        touches a few samples of every metric, not all of one."""
        raw: Dict[str, list] = {kind: [] for kind in (
            "fresh", "planned", "batch", "open", "closed",
            "open_replies", "closed_replies")}
        per_round = seconds / ROUNDS
        for _ in range(ROUNDS):
            for kind, op in (("fresh", self.op_fresh),
                             ("planned", self.op_planned),
                             ("batch", self.op_batch)):
                self.paired(raw[kind], kind, op, SHARES[kind] * per_round)
            self.serve_open(raw, SHARES["open"] * per_round)
            self.serve_closed(raw, SHARES["closed"] * per_round)
        return raw


def ratios(samples, per: int = 1) -> List[float]:
    """Each sample's seconds (per row) over the mean of the reference
    loops just before and just after it."""
    return [t / per / ((before + after) / 2) for t, before, after in samples]


def e2e_metrics(bench: Bench, raw: Dict[str, list]) -> Dict[str, float]:
    from serving import CONNECTIONS

    planned = ratios(raw["planned"])
    served = ratios(raw["open"])
    requests = sum(n for n, _, _, _ in raw["closed"])
    ref_units = sum(t / ((b + a) / 2) for _, t, b, a in raw["closed"])
    return {
        "setup_s": median(bench.setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (bench.tally.attempted - bench.tally.failed)
        / max(1, bench.tally.attempted),
        "fresh_vs_seq": median(ratios(raw["fresh"])),
        "planned_vs_seq": median(planned),
        "planned_tail_vs_seq": tail(planned)[0],
        "batch_row_vs_seq": median(ratios(raw["batch"], bench.batch_rows)),
        "serve_p50_vs_seq": median(served),
        "serve_tail_vs_seq": tail(served)[0],
        # requests completed per reference loop, summed over connections
        "serve_rps_x_seq": requests / ref_units * CONNECTIONS,
    }


def describe(raw: Dict[str, list]) -> List[str]:
    """Sample counts and tail percentiles, for the human-readable report."""
    from serving import CONNECTIONS

    lines = [f"{kind}: {len(raw[kind])} calls" for kind in ("fresh", "planned", "batch")]
    lines.append(f"planned tail = p{100 * tail(ratios(raw['planned']))[1]:.0f}")
    lines.append(f"serve open loop: {len(raw['open'])} requests, tail = "
                 f"p{100 * tail(ratios(raw['open']))[1]:.0f}")
    lines.append(f"serve closed loop: {len(raw['closed_replies'])} requests on "
                 f"{CONNECTIONS} connections")
    return lines


# -- traced run ---------------------------------------------------------------

#: Calls per single-layer timing in the traced run (median reported).
LAYER_REPS = 3


def _counter_sum(snapshot, name: str, **labels) -> float:
    return sum(
        s.get("value", 0) for s in snapshot
        if s["name"] == name and s["kind"] == "counter"
        and all(s["labels"].get(k) == v for k, v in labels.items())
    )


def _hist(snapshot, name: str) -> Tuple[float, int]:
    """``(sum, count)`` of a histogram over all its label sets."""
    total, count = 0.0, 0
    for s in snapshot:
        if s["name"] == name and s["kind"] == "histogram":
            total += s.get("sum") or 0.0
            count += s.get("count") or 0
    return total, count


def _timed(spans, name: str, fn: Callable, reps: int = LAYER_REPS) -> Tuple[float, Any]:
    """Median seconds of ``reps`` calls of ``fn`` and its last result."""
    times, out = [], None
    for _ in range(reps):
        gc.collect()
        with spans.span(name):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
    return median(times), out


def layer_metrics(bench: Bench, spans, registry) -> Tuple[Dict[str, float], List[str]]:
    """Single layers timed through their public calls, plus counters
    read from the program's metrics registry around those calls."""
    from repro.core import build_dependence_graph, count_all_paths, run_gir, run_ordinary
    from repro.core.moebius import run_moebius_sequential
    from repro.engine import EngineOptions, Problem, Session, shutdown_pools
    from repro.engine.exec_moebius import affine_coefficients
    from repro.engine.planner import plan_nbytes
    from repro.resilience.guard import default_guard

    wl, src = bench.wl, bench.wl.system
    family = bench.session.family
    out: Dict[str, float] = {}
    na: List[str] = []

    sequential = {"ordinary": run_ordinary, "gir": run_gir,
                  "moebius": run_moebius_sequential}[family]
    out["core.sequential_s"], _ = _timed(spans, "core.sequential", lambda: sequential(src))
    out["engine.problem.fingerprint_s"], _ = _timed(
        spans, "engine.problem.fingerprint",
        lambda: Problem.from_system(src).fingerprint())

    numpy_opts = EngineOptions(backend="numpy")

    def plan_numpy():
        session = Session(src, options=numpy_opts)
        if session.plan is None:
            session.solve()  # GIR: the plan is built by the first solve
        return session.plan

    out["engine.planner.plan_s"], plan = _timed(spans, "engine.planner.plan", plan_numpy)
    out["engine.plan.nbytes"] = plan_nbytes(plan)
    schedule = getattr(plan, "ordinary", None) or getattr(plan, "dispatch", None)
    if schedule is None and hasattr(plan, "steps"):
        schedule = plan
    out["engine.plan.rounds"] = schedule.rounds if schedule is not None else 0
    out["engine.plan.active_cells"] = (
        sum(schedule.active_per_round) if schedule is not None else 0)
    if schedule is None:
        na.append("engine.plan.rounds/active_cells: a CAP-planned GIR has no "
                  "pointer-jumping rounds (0)")
    del plan, schedule

    row = wl.rows[0]
    if wl.name in ("chain_1m", "gir_random"):
        workers = os.cpu_count() or 1
        shm = Session(src, options=EngineOptions(backend="shm", workers=workers))
        try:
            shm.solve(row)  # warm: start workers, ship the plan
            warm = _hist(registry.snapshot(), "engine.shm.barrier_wait_s")
            out["engine.exec_shm.solve_s"], res = _timed(
                spans, "engine.exec_shm.solve", lambda: shm.solve(row),
                reps=LAYER_REPS)
            after = _hist(registry.snapshot(), "engine.shm.barrier_wait_s")
            bench.tally.record(bench.checks[0](res.values), "shm solve of row 0")
            out["engine.shm.barrier_wait_s"] = (after[0] - warm[0]) / LAYER_REPS
        finally:
            del shm
            shutdown_pools()
    else:
        out["engine.exec_shm.solve_s"] = 0.0
        out["engine.shm.barrier_wait_s"] = 0.0
        na.append("engine.exec_shm.*: measured on chain_1m and gir_random only (0)")

    if family == "gir":
        graph = build_dependence_graph(src)
        snap0 = registry.snapshot()
        out["core.cap.count_all_paths_s"], _ = _timed(
            spans, "core.cap.count_all_paths", lambda: count_all_paths(graph), reps=1)
        snap1 = registry.snapshot()
        out["cap.iterations"] = (_counter_sum(snap1, "cap.iterations")
                                 - _counter_sum(snap0, "cap.iterations"))
        out["cap.edge_work"] = (_counter_sum(snap1, "cap.edge_work")
                                - _counter_sum(snap0, "cap.edge_work"))
        del graph
        bench.session.solve(row)
        snap2 = registry.snapshot()
        for name in ("gir.power_ops", "gir.combine_ops"):
            out[name] = _counter_sum(snap2, name) - _counter_sum(snap1, name)
    else:
        for name in ("core.cap.count_all_paths_s", "cap.iterations",
                     "cap.edge_work", "gir.power_ops", "gir.combine_ops"):
            out[name] = 0
        na.append("cap.*, gir.*: GIR workloads only (0)")

    if family == "moebius":
        result = bench.session.solve(row).values
        guard = default_guard()
        out["resilience.guard.check_values_s"], _ = _timed(
            spans, "resilience.guard.check_values",
            lambda: guard.check_values(result), reps=5)
        sched = bench.session.plan.ordinary
        out["engine.exec_moebius.affine_coefficients_s"], _ = _timed(
            spans, "engine.exec_moebius.affine_coefficients",
            lambda: affine_coefficients(bench.sources[0], sched), reps=5)
    else:
        out["resilience.guard.check_values_s"] = 0.0
        out["engine.exec_moebius.affine_coefficients_s"] = 0.0
        na.append("resilience.guard.check_values_s, engine.exec_moebius.*: "
                  "Moebius workloads only (0)")
    return out, na


def traced_run(name: str, seed: int, seconds: float, declared
               ) -> Tuple[Dict[str, float], Bench, List[str]]:
    from repro import obs
    from spans import NoSpans, Spans

    spans = Spans()
    bench = Bench(name, seed, NoSpans())
    try:
        half = seconds / 2
        untraced = e2e_metrics(bench, bench.measure(half))
        bench.refs.clear()
        bench.spans = spans
        _tracer, registry = obs.enable()
        try:
            with spans.span("measure"):
                raw = bench.measure(half)
            traced = e2e_metrics(bench, raw)
            snap = registry.snapshot()
            lines = describe(raw)
            metrics: Dict[str, float] = {"ref.seq_s": median(bench.refs)}
            metrics["engine.session.solve_s"] = median(
                [t for t, _, _ in raw["planned"]])
            metrics["engine.session.batch_row_s"] = median(
                [t for t, _, _ in raw["batch"]]) / bench.batch_rows
            metrics["engine.api.fresh_solve_s"] = median(
                [t for t, _, _ in raw["fresh"]])
            metrics["engine.plan.cache.hits"] = _counter_sum(snap, "engine.plan.cache.hits")
            metrics["engine.plan.cache.misses"] = _counter_sum(snap, "engine.plan.cache.misses")
            for metric in declared["layer"]:
                if metric.startswith("engine.solves."):
                    metrics[metric] = _counter_sum(
                        snap, "engine.solves", backend=metric.split(".")[-1])
            metrics["resilience.escalations"] = _counter_sum(snap, "resilience.escalations")
            metrics.update(serve_layer_metrics(raw, snap, metrics))
            with spans.span("layers"):
                layers, na = layer_metrics(bench, spans, registry)
            metrics.update(layers)
            lines.extend(f"n/a: {note}" for note in na)
        finally:
            obs.disable()
        # Tracing overhead of each ratio: how much worse it reads traced.
        for m, spec in declared["e2e"].items():
            if m.endswith("_seq"):
                a, b = untraced[m], traced[m]
                metrics[f"trace_overhead.{m}"] = (
                    a / b if spec["better"] == "higher" else b / a) - 1
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        spans.write(path)
        lines.append(f"{len(spans)} spans written to {path.relative_to(ROOT)}")
        return metrics, bench, lines
    finally:
        bench.close()


def serve_layer_metrics(raw, snap, metrics) -> Dict[str, float]:
    replies = raw["open_replies"] + raw["closed_replies"]
    ok = [r for r in replies if r.doc is not None]
    opened = [r for r in raw["open_replies"] if r.doc is not None]
    request_s = median([r.done - r.sent for r in opened])
    width_sum, width_count = _hist(snap, "serve.coalesce.width")
    return {
        "serve.client.request_s": request_s,
        "serve.overhead_s": request_s - metrics["engine.session.solve_s"],
        "serve.queue_wait_s": median([r.doc.get("queue_wait_s") or 0.0 for r in ok]),
        "serve.coalesce.width": width_sum / width_count if width_count else 0.0,
        "serve.coalesced_frac": sum(bool(r.doc.get("coalesced")) for r in ok)
        / max(1, len(ok)),
        "serve.rejected": _counter_sum(snap, "serve.rejected"),
        "serve.gen_late_s": median([r.sent - r.due for r in raw["open_replies"]]),
        "serve.sent": len(replies),
        "serve.succeeded": len(ok),
        "serve.failed": len(replies) - len(ok),
    }


# -- entry point --------------------------------------------------------------


def load_declared() -> Dict[str, Dict[str, Any]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "e2e": {m["name"]: m for m in spec["end_to_end"]},
        "layer": {m["name"]: m for m in spec["per_layer"]},
    }


def stop_children() -> None:
    """Stop every process this run started and wait for each to end:
    the shm worker pools and the multiprocessing resource tracker, which
    would otherwise outlive the run."""
    import multiprocessing
    from multiprocessing import resource_tracker

    if "repro.engine" in sys.modules:
        from repro.engine import shutdown_pools

        shutdown_pools()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=30)
    # The tracker exits once every copy of its pipe is closed; ``_stop``
    # closes ours and waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run(argv)
    finally:
        stop_children()


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    declared = load_declared()

    if args.trace:
        values, bench, lines = traced_run(
            args.workload, args.seed, args.seconds, declared)
        wanted = declared["layer"]
    else:
        from spans import NoSpans

        bench = Bench(args.workload, args.seed, NoSpans())
        try:
            raw = bench.measure(args.seconds)
            values = e2e_metrics(bench, raw)
            lines = describe(raw)
        finally:
            bench.close()
        lines.append(f"ref.seq_s={median(bench.refs):.6f} "
                     f"(median of {len(bench.refs)} reference loops)")
        wanted = declared["e2e"]

    missing = sorted(set(wanted) - set(values))
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    metrics = {
        # A failed serve request is infinitely late; JSON has no
        # infinity, so such a value is reported as the largest float.
        name: {"value": min(float(values[name]), sys.float_info.max),
               "unit": spec["unit"]}
        for name, spec in wanted.items()
    }
    for line in lines:
        print(line)
    for note in bench.tally.notes:
        print(f"FAILED: {note}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": bench.tally.failed == 0 and not bench.tally.notes,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
