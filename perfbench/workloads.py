"""The four workloads: their inputs, their size, and why each exists.

Each workload is run as whole *rounds*.  A round is one fresh
interpreter doing a fixed amount of work — a fixed step count, or a
fixed campaign — sized so that every physics check below stays valid:
all horizons end before the incident shock reaches a bubble and before
the start-up waves reach the inflow boundary.  ``--seconds`` sets how
many rounds a run makes (never fewer than one), so the same
``--seconds`` always means the same work, whatever the program's speed.

Inputs are written by the benchmark into the run's temporary directory;
the program only ever sees those files.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

SHIPPED_BUBBLE = Path("examples/cases/shock_bubble_resilient.json")
SHIPPED_CLUSTER = Path("examples/cases/shock_bubble_cluster.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Wall seconds of one round on the reference host (2 vCPU,
    #: ~7 GB/s STREAM); rounds per run = seconds / this, rounded.
    round_seconds: float
    #: Steps per round ("run") or jobs per campaign ("ensemble").
    size: int
    smoke_size: int
    #: Largest relative departure of the boundary strips from the
    #: inflow/quiescent states for which the conservation balance is
    #: asserted (``checks.conservation``): three to five times the
    #: largest departure seen at any step of a round on this grid, or
    #: 1e-12 where none beyond roundoff is seen.  The start-up waves of
    #: the initial shock reach the inflow strip the sooner, the fewer
    #: cells lie between them (4.8 at 32², 38 at 256²).
    premise_tol: float


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "bubble_256",
            "default path at 256^2: WENO/Riemann dominate and the ~200 MiB "
            "working set dwarfs L2, so kernel and memory-traffic changes "
            "show here",
            7.5, 10, 2, 1e-12),
        Workload(
            "resilient_96",
            "shipped resilient case: guarded steps, validation and durable "
            "checkpoints plus a restore are a visible share of a small grid",
            5.0, 50, 22, 1e-6),
        Workload(
            "campaign_32",
            "seeded 32^2 variants through the durable service: per-call "
            "overhead, per-job case set-up, ledger fsyncs, forks and replay",
            4.0, 24, 4, 3e-4),
        Workload(
            "bubble_128_r2",
            "shipped cluster case at 128^2 on 2 process ranks: the only path "
            "through ProcessCluster, RankSolver, halo exchange and spawn/join",
            6.5, 50, 3, 1e-9),
    )
}


def rounds_for(workload: Workload, seconds: float) -> int:
    return max(1, round(seconds / workload.round_seconds))


def _case_part(spec: dict) -> dict:
    return {k: copy.deepcopy(spec[k]) for k in ("grid", "fluids", "patches")}


def campaign_jobs(base: dict, seed: int, n_jobs: int) -> list[dict]:
    """Seeded shock-bubble variants at 32² with ragged horizons.

    The seed draws each bubble's centre and radius.  Horizons follow a
    fixed 4-cycle by job index, so every seed advances the same number
    of case steps in the same batch shapes; only the geometry moves.
    Bubbles sit at x >= 0.38 so the shock (from x = 0.15 at S ~ 1.44)
    reaches none of them before the longest horizon.
    """
    rng = random.Random(seed)
    horizons = (0.03, 0.045, 0.06, 0.075)
    jobs = []
    for i in range(n_jobs):
        case = _case_part(base)
        case["grid"]["shape"] = [32, 32]
        bubble = case["patches"][2]["geometry"]
        bubble["center"] = [round(rng.uniform(0.50, 0.60), 6),
                            round(rng.uniform(0.40, 0.60), 6)]
        bubble["radius"] = round(rng.uniform(0.08, 0.12), 6)
        jobs.append({"name": f"v{i:02d}", "case": case,
                     "t_end": horizons[i % len(horizons)]})
    return jobs


def write_inputs(name: str, root: Path, tmp: Path, seed: int,
                 smoke: bool) -> dict:
    """Write one round's input files into ``tmp``; return the round config.

    The config names the case or spec file the worker hands the
    program, the per-round size, and the case dictionaries the checks
    read (as the benchmark wrote them, not as the program parsed them).
    """
    wl = WORKLOADS[name]
    size = wl.smoke_size if smoke else wl.size
    bubble = json.loads((root / SHIPPED_BUBBLE).read_text())
    if name == "bubble_256":
        case = _case_part(bubble)
        case["grid"]["shape"] = [256, 256]
        path = tmp / "bubble_256.json"
        path.write_text(json.dumps(case, indent=1))
        return {"kind": "run", "case_path": path.name, "steps": size,
                "case": case}
    if name == "resilient_96":
        path = tmp / "shock_bubble_resilient.json"
        path.write_text((root / SHIPPED_BUBBLE).read_text())
        return {"kind": "run", "case_path": path.name, "steps": size,
                "restart": True, "case": _case_part(bubble)}
    if name == "bubble_128_r2":
        spec = json.loads((root / SHIPPED_CLUSTER).read_text())
        spec["grid"]["shape"] = [128, 128]
        path = tmp / "bubble_128_r2.json"
        path.write_text(json.dumps(spec, indent=1))
        return {"kind": "run", "case_path": path.name, "steps": size,
                "case": _case_part(spec)}
    if name == "campaign_32":
        jobs = campaign_jobs(bubble, seed, size)
        spec = {
            "batch_width": 2 if smoke else 4,
            "solver": {"threads": 1},
            "service": {
                "ledger": "service/campaign.ledger",
                "checkpoint_dir": "service/checkpoints",
                "results_dir": "service/results",
                "max_attempts": 3,
                "deadline_seconds": 120.0,
            },
            "jobs": jobs,
        }
        path = tmp / "campaign_32.json"
        path.write_text(json.dumps(spec, indent=1))
        return {"kind": "ensemble", "spec_path": path.name,
                "ledger": spec["service"]["ledger"],
                "cases": [j["case"] for j in jobs],
                "t_ends": [j["t_end"] for j in jobs]}
    raise KeyError(name)
