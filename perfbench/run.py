#!/usr/bin/env python3
"""perfbench: long, physics-checked runs of the paths users launch.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bubble_256 --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

A run is a number of *rounds* (see ``workloads.py``), each a fresh
interpreter started by this script that makes the same public calls
``python -m repro run`` / ``python -m repro ensemble`` make.  Every
round gets its own temporary directory under ``.perfbench_tmp/``, BLAS
thread variables set to 1, no ``REPRO_*`` variable from the caller, and
tuning/bandwidth caches inside that directory, so nothing in the
repository (``.repro_tuning/`` included) leaks in.

``--trace 0`` prints the end-to-end metrics: medians over the rounds,
``setup_s`` over at least five set-ups (extra set-up-only interpreters
make up the count), ``grind_ns`` over every recorded step (every job on
the campaign).  ``--trace 1`` runs untraced and traced rounds in turn
and prints the per-layer metrics of the traced ones, with the wall-time
gap as ``trace.overhead_s``.  Each output check's verdict is printed
above the last line, which is one JSON object.  The exit status is 1
when a check fails or an operation failed, as with ``--smoke``.

``--smoke`` runs every workload for a few steps, traced and untraced,
with every check, and exits non-zero if anything fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS, rounds_for, write_inputs  # noqa: E402

#: Metric names, units and bounds: BENCHMARK.json is the one source.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}

#: Set-up time is reported as the median of at least this many set-ups.
SETUP_SAMPLES = 5
#: Whole-invocation deadline; a run must end well inside 180 s.
DEADLINE_S = 170.0
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (not a problem of the program)."""


def preflight() -> None:
    for need in ("src/repro/__init__.py",
                 "examples/cases/shock_bubble_resilient.json",
                 "examples/cases/shock_bubble_cluster.json"):
        if not (ROOT / need).is_file():
            raise BenchError(f"{need} not found under {ROOT}")
    # Byte-compile once, outside every timed region, so the first
    # round's imports cost what every later one's do.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PERFBENCH_", "PYTHON"))}
    env.update(dict.fromkeys(BLAS_THREADS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_TUNING_CACHE"] = str(tmp / "tuning" / "cache.json")
    env["REPRO_BANDWIDTH_CACHE"] = str(tmp / "tuning" / "bandwidth.json")
    return env


def _live_members(pgid: int) -> list[int]:
    """Processes of a session that have not exited.

    Zombies do not count: a worker's orphans are re-parented to an init
    process that may reap them late, and they hold no resources.
    """
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            alive.append(int(entry))
    return alive


def _stop_group(pgid: int) -> None:
    """Wait for every process of a round's session; kill stragglers."""
    for _attempt in range(2):
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not _live_members(pgid):
                return
            time.sleep(0.02)
        for pid in _live_members(pgid):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def round(self, *, trace: bool = False, setup_only: bool = False,
              reference: bool = False) -> dict:
        """One fresh-interpreter round in a fresh directory."""
        self.count += 1
        rdir = self.tmp / f"round-{self.count:02d}"
        rdir.mkdir()
        cfg = write_inputs(self.workload, ROOT, rdir, self.seed, self.smoke)
        cfg.update(trace=trace, setup_only=setup_only, reference=reference,
                   premise_tol=WORKLOADS[self.workload].premise_tol)
        (rdir / "round.json").write_text(json.dumps(cfg))
        env = child_env(rdir)
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            return self._broken(cfg, "no time left for this round")
        with open(rdir / "worker.log", "wb") as log:
            env["PERFBENCH_T0"] = repr(time.perf_counter())
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), "round.json"],
                cwd=rdir, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
            try:
                proc.wait(timeout=left)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            finally:
                _stop_group(proc.pid)
        result = rdir / "result.json"
        if proc.returncode != 0 or not result.is_file():
            tail = (rdir / "worker.log").read_text(errors="replace")[-600:]
            return self._broken(cfg, f"worker exit {proc.returncode}: {tail}")
        out = json.loads(result.read_text())
        # Round directories hold hundreds of MB of checkpoints on the
        # bigger grids; nothing in them is read again.
        shutil.rmtree(rdir, ignore_errors=True)
        return out

    def _broken(self, cfg: dict, why: str) -> dict:
        n = cfg.get("steps", len(cfg.get("cases", ())))
        return {"attempted": n, "failed": n, "broken": True,
                "checks": [{"name": "worker", "ok": False, "detail": why}]}


# ----------------------------------------------------------------------
def _median(rounds: list[dict], key: str) -> float:
    vals = [r[key] for r in rounds if key in r]
    return statistics.median(vals) if vals else 0.0


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[runner.workload]
    n = 1 if runner.smoke else rounds_for(wl, seconds)
    rounds, traced = [], []
    for _ in range(n):
        rounds.append(runner.round())
        if trace:
            traced.append(runner.round(trace=True))
    probes = []
    if not trace and not runner.smoke:
        probes = [runner.round(setup_only=True)
                  for _ in range(max(0, SETUP_SAMPLES - n))]
    ran = rounds + traced
    verdicts = [(i, c) for i, r in enumerate(ran, 1) for c in r["checks"]]
    if runner.workload == "bubble_128_r2":
        ref = runner.round(reference=True)
        verdicts += [(0, c) for c in ref["checks"]]
        for i, r in enumerate(ran, 1):
            if "sha256" in r and "sha256" in ref:
                verdicts.append((i, {
                    "name": "ranks_equal_serial",
                    "ok": r["sha256"] == ref["sha256"],
                    "detail": f"sha256 {r['sha256'][:16]} (2 ranks) vs "
                              f"{ref['sha256'][:16]} (serial)"}))
    for p in probes:
        verdicts += [(0, c) for c in p["checks"]]
    e2e = {
        "wall_s": _median(rounds, "wall_s"),
        "setup_s": _median(rounds + probes, "setup_s"),
        "march_s": _median(rounds, "march_s"),
        "grind_ns": statistics.median(
            [g for r in rounds for g in r.get("grinds", ())] or [0.0]),
        "peak_rss_mb": _median(rounds, "peak_rss_mb"),
    }
    layers = {}
    if trace:
        for r in traced:
            r.setdefault("layers", {})
            if "import_s" in r:
                r["layers"]["import.repro_s"] = r["import_s"]
        for name in PER_LAYER:
            vals = [r["layers"][name] for r in traced if name in r["layers"]]
            layers[name] = statistics.median(vals) if vals else 0.0
        layers["trace.overhead_s"] = (_median(traced, "wall_s")
                                      - _median(rounds, "wall_s"))
    return {
        "verdicts": verdicts, "ran": ran,
        "attempted": sum(r["attempted"] for r in ran),
        "failed": sum(r["failed"] for r in ran),
        "broken": any(r.get("broken") for r in ran + probes),
        "rounds": len(rounds), "setups": len(rounds) + len(probes),
        "e2e": e2e, "layers": layers,
    }


def report(workload: str, res: dict, trace: bool) -> dict:
    print(f"perfbench {workload}: {res['rounds']} round(s), "
          f"{res['setups']} set-up(s); attempted {res['attempted']}, "
          f"failed {res['failed']}")
    for i, r in enumerate(res["ran"], 1):
        if "wall_s" in r:
            print(f"  round {i}: wall {r['wall_s']:.3f} s, setup "
                  f"{r['setup_s']:.3f} s, march {r['march_s']:.3f} s"
                  + (" (traced)" if r.get("layers") else ""))
    for i, c in res["verdicts"]:
        where = f"round {i}" if i else "reference"
        print(f"  check {c['name']:<36} {'PASS' if c['ok'] else 'FAIL'}  "
              f"[{where}] {c['detail']}")
    metrics = res["layers"] if trace else res["e2e"]
    units = PER_LAYER if trace else END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<22} {value:>14.6g} {units[name]}")
    correct = (not res["broken"]
               and all(c["ok"] for _, c in res["verdicts"]))
    return {"correct": correct, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def smoke() -> int:
    bad = []
    for name in WORKLOADS:
        runner = Runner(name, seed=1, smoke=True)
        try:
            res = measure(runner, 0.0, trace=True)
        finally:
            runner.close()
        out = report(name, res, trace=True)
        if not out["correct"] or out["failed"]:
            bad.append(name)
    print("smoke:", "all workloads passed" if not bad
          else f"FAILED: {', '.join(bad)}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCH["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        preflight()
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required (or --smoke)")
    runner = Runner(args.workload, args.seed, smoke=False)
    try:
        res = measure(runner, args.seconds, bool(args.trace))
    finally:
        runner.close()
    out = report(args.workload, res, bool(args.trace))
    print(json.dumps(out))
    return 0 if out["correct"] and not out["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
