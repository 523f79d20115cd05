"""Steadiness report: is the benchmark steady enough to gate on?

Runs ``perfbench/run.py`` repeatedly on each workload, one run at a time
and each with another seed, then prints for every end-to-end metric its
median and quartile spread ((Q3 - Q1) / median) next to the bound fixed
in ``BENCHMARK.json``.  It also prints the spread of ``ref.seq_s``, the
absolute time of the reference loop: when that spreads, the host's speed
drifted, and the ``*_vs_seq`` ratios are what should stay put.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 --seed0 1000 [--workloads chain_1m ...]
        [--save set1.json] [--against set0.json]

``--save`` writes every run's metrics; ``--against`` compares this set's
medians with a saved set and flags any metric worse by more than its
bound.  The exit code is 1 when a spread (other than ``setup_s``'s)
exceeds its bound, a comparison fails, or a run was not correct.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_LINE = re.compile(r"^ref\.seq_s=([0-9.eE+-]+)")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    ref = [float(m.group(1)) for m in map(REF_LINE.match, lines) if m]
    result["ref.seq_s"] = ref[0] if ref else float("nan")
    result["wall_s"] = wall
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    previous = {}
    if args.against:
        with open(args.against) as fh:
            previous = json.load(fh)
    saved, bad = {}, False
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            runs.append(one_run(workload, args.seed0 + i, args.seconds))
            print(f"  {workload} seed {args.seed0 + i}: "
                  f"{runs[-1]['wall_s']:.1f}s wall", flush=True)
        saved[workload] = runs
        correct = all(r["correct"] for r in runs)
        bad |= not correct
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, correct={correct}, wall "
              f"median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        ref_med, ref_spread = spread([r["ref.seq_s"] for r in runs])
        print(f"  {'ref.seq_s':<22} median {ref_med:12.6g}  spread "
              f"{100 * ref_spread:6.2f}%  (host drift; no bound)")
        for name, decl in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            bound = decl["bound"]
            verdict = "ok" if sp <= bound / 3 else (
                "WIDE" if sp <= bound else "OVER")
            if sp > bound and name != "setup_s":
                bad = True
            line = (f"  {name:<22} median {med:12.6g}  spread {100 * sp:6.2f}%"
                    f"  bound {100 * bound:5.1f}%  {verdict}")
            old = previous.get(workload)
            if old:
                old_med = statistics.median(
                    r["metrics"][name]["value"] for r in old)
                change = (med - old_med) / old_med if old_med else 0.0
                worse = -change if decl["better"] == "higher" else change
                line += f"  vs saved {100 * change:+6.2f}%"
                if worse > bound:
                    line += " WORSE"
                    bad = True
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
