#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same commit.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10

For every run index it runs every workload of ``BENCHMARK.json`` for
its ``run_seconds`` once for set A and once for set B, each time with a
seed no other run uses, so slow drift of the host lands in both sets
alike.  Per workload and end-to-end metric it prints each set's median
and quartiles, the quartile spread as a share of the median, and the
drift of B's median from A's.  It then says whether the sets agree
within the bounds in ``BENCHMARK.json``: every spread within its bound,
B's median within the bound of A's either way, every run correct, and
the same failed share in both sets — and which bound each metric would
need (three times the larger of the widest spread and the drift, so
that what was measured sits at a third of it).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs: dict = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for k, label in enumerate("AB"):
                seed = 1 + 2 * i + k
                t0 = time.monotonic()
                out = one_run(w, seed, seconds)
                runs[w][label].append(out)
                print(f"run {i + 1}/{args.runs} {w} set {label} seed {seed} "
                      f"({time.monotonic() - t0:.0f} s): "
                      + ", ".join(f"{n}={v['value']:.4g}"
                                  for n, v in out["metrics"].items()),
                      flush=True)

    agree = True
    print()
    for w in workloads:
        print(f"{w}")
        print(f"  {'metric':<12} {'set':>3} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'spread':>7}   {'drift':>7} {'bound':>6} "
              f"{'needs':>6}  verdict")
        for name, spec in metrics.items():
            stats = {}
            for label in "AB":
                vals = [r["metrics"][name]["value"] for r in runs[w][label]]
                q1, med, q3 = quartiles(vals)
                stats[label] = (med, q1, q3, (q3 - q1) / med)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            drift = sign * (stats["B"][0] - stats["A"][0]) / stats["A"][0]
            spread = max(stats["A"][3], stats["B"][3])
            bound = spec["bound"]
            ok = abs(drift) <= bound and spread <= bound
            agree &= ok
            needs = 3.0 * max(spread, abs(drift))
            for label in "AB":
                med, q1, q3, sp = stats[label]
                tail = (f"   {100 * drift:+6.2f}% {bound:6.2f} {needs:6.3f}  "
                        f"{'ok' if ok else 'NOT STEADY'}") if label == "B" \
                    else ""
                print(f"  {name:<12} {label:>3} {med:11.5g} {q1:11.5g} "
                      f"{q3:11.5g} {100 * sp:6.2f}%{tail}")
        shares = {label: sum(r["failed"] for r in runs[w][label])
                  / sum(r["attempted"] for r in runs[w][label])
                  for label in "AB"}
        correct = all(r["correct"] for s in "AB" for r in runs[w][s])
        same = shares["A"] == shares["B"]
        agree &= same and correct
        print(f"  failed share A {shares['A']:.6f} B {shares['B']:.6f} "
              f"({'same' if same else 'DIFFERENT'}); every run correct: "
              f"{correct}")
    print()
    print("sets agree within BENCHMARK.json bounds" if agree
          else "sets do NOT agree within BENCHMARK.json bounds")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
