"""One round of a workload in a fresh interpreter.

Started by ``run.py`` as ``python3 worker.py ROUND.json`` with the
round's temporary directory as working directory.  It makes the same
public calls ``python -m repro run`` / ``python -m repro ensemble``
make, timing them from interpreter start (``PERFBENCH_T0``, the
parent's monotonic clock just before it started this process) to the
return of the last program call.  Only then does it read peak memory,
run the output checks of ``checks.py`` and, when asked, the untimed
reference march; everything lands in ``result.json``.
"""

import os
import resource
import sys
import time

T0 = float(os.environ["PERFBENCH_T0"])
clock = time.perf_counter


def shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def cli_simulation(case_path, *, ranks=None):
    """``Simulation`` exactly as ``python -m repro run CASE`` builds it."""
    from repro.bc import BoundarySet
    from repro.io.case_files import load_case, load_solver_options
    from repro.solver import RHSConfig, Simulation

    case = load_case(case_path)
    bcs = BoundarySet.all_extrapolation(case.grid.ndim)
    opts = load_solver_options(case_path)
    cluster = {k: opts[k] for k in ("cluster_timeout", "max_restarts")
               if k in opts}
    resilience = {k: opts[k] for k in ("checkpoint_every", "checkpoint_keep",
                                       "checkpoint_dir", "validate_every",
                                       "retry") if k in opts}
    sim = Simulation(case, bcs, config=RHSConfig(), cfl=0.5,
                     threads=opts.get("threads", 1),
                     ranks=opts.get("ranks", 1) if ranks is None else ranks,
                     sweep_layout=opts.get("sweep_layout", "strided"),
                     fusion=opts.get("fusion", "off"),
                     backend=opts.get("backend"),
                     precision=opts.get("precision", "float64"),
                     tuning=opts.get("tuning", "off"),
                     tuning_cache=opts.get("tuning_cache"),
                     **cluster, **resilience)
    return sim


def cli_service(spec_path):
    """``EnsembleService`` exactly as ``python -m repro ensemble SPEC``."""
    from repro.bc import BoundarySet
    from repro.ensemble import EnsembleService
    from repro.io.case_files import load_ensemble_spec
    from repro.solver import RHSConfig

    jobs, batch_width, opts, service = load_ensemble_spec(spec_path)
    bcs = BoundarySet.all_extrapolation(jobs[0].case.grid.ndim)
    engine = dict(cfl=0.5, threads=opts.get("threads", 1),
                  sweep_layout=opts.get("sweep_layout", "strided"),
                  fusion=opts.get("fusion", "off"),
                  backend=opts.get("backend"),
                  tuning=opts.get("tuning", "off"),
                  tuning_cache=opts.get("tuning_cache"))
    return jobs, EnsembleService(jobs, bcs, batch_width=batch_width,
                                 config=RHSConfig(), **engine, **service)


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def grind_ns(walls, cells, nvars, rhs_per_step=3):
    return [w / (cells * nvars * rhs_per_step) * 1e9 for w in walls]


# ----------------------------------------------------------------------
def run_round(cfg: dict) -> dict:
    out = {"checks": [], "layers": {}}
    t_import = clock()
    import repro  # noqa: F401  (the package import users pay first)
    from repro.bc import BoundarySet  # noqa: F401
    from repro.io import case_files  # noqa: F401
    from repro.solver import Simulation  # noqa: F401
    out["import_s"] = clock() - t_import
    tracer = None
    if cfg["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if cfg.get("reference"):
        out.update(_run_reference(cfg))
    elif cfg["kind"] == "run":
        out.update(_run_case(cfg, tracer))
    else:
        out.update(_run_campaign(cfg, tracer))
    return out


def _run_case(cfg: dict, tracer) -> dict:
    shm_before = shm_segments()
    sim = cli_simulation(cfg["case_path"])
    t_setup = clock()
    res = {"setup_s": t_setup - T0}
    if cfg["setup_only"]:
        return res
    n = cfg["steps"]
    sims = [sim]
    planned, done = n, 0
    error = None
    t_march = 0.0
    q_init = sim.q.copy()  # for the conservation check; ~1 ms at 256²
    try:
        t0 = clock()
        sim.run(n_steps=n)
        sim.validate_state()
        t_march = clock() - t0
        done = n
        if cfg.get("restart"):
            again = cli_simulation(cfg["case_path"])
            sims.append(again)
            again.restore_latest()
            k = n - again.step_count
            planned += k
            t1 = clock()
            again.run(n_steps=k)
            again.validate_state()
            t_march += clock() - t1
            done += k
    except Exception as err:  # the program failed: report, do not crash
        error = f"{type(err).__name__}: {err}"
    t_end = clock()
    res.update(wall_s=t_end - T0, march_s=t_march, peak_rss_mb=peak_rss_mib())
    # ---- the clock has stopped --------------------------------------
    if tracer is not None:
        tracer.uninstall()
    import numpy as np

    import checks

    res["attempted"], res["failed"] = planned, planned - done
    walls = [r.wall_seconds for s in sims for r in s.history]
    cells, nvars = sim.grid.num_cells, sim.layout.nvars
    res["grinds"] = grind_ns(walls, cells, nvars)
    verdicts = []
    if error is not None:
        verdicts.append(checks.Verdict("program", False, error))
    else:
        view = checks.CaseView(cfg["case"])
        q = np.asarray(sim.q)
        verdicts += checks.state_checks(q, view.totals(q_init), sim.time,
                                        view, cfg["premise_tol"])
        res["sha256"] = checks.digest(q)
        if len(sims) > 1:
            verdicts.append(checks.same_bytes(
                "restart_equals_uninterrupted",
                checks.digest(np.asarray(sims[1].q)), res["sha256"]))
        if sim.ranks > 1:
            verdicts += _halo_checks(sim, n)
            leaked = shm_segments() - shm_before
            verdicts.append(checks.Verdict(
                "no_shm_left", not leaked,
                f"{len(leaked)} segment(s) left in /dev/shm"))
    res["checks"] = [v.as_dict() for v in verdicts]
    if tracer is not None:
        res["layers"] = _case_layers(tracer, sims, cells, nvars)
    return res


def _run_reference(cfg: dict) -> dict:
    """The serial march a rank run must equal byte for byte (untimed)."""
    import checks

    sim = cli_simulation(cfg["case_path"], ranks=1)
    sim.run(n_steps=cfg["steps"])
    return {"sha256": checks.digest(sim.q), "checks": []}


def _halo_checks(sim, steps: int) -> list:
    import checks
    from repro.cluster import BlockDecomposition
    from repro.weno import halo_width

    decomp = BlockDecomposition.balanced(sim.grid.shape, sim.ranks)
    exchanges = steps * 3  # one full halo exchange per RK3 stage
    ng = halo_width(sim.config.weno_order)
    want_msgs = decomp.total_messages() * exchanges
    want_bytes = decomp.total_halo_bytes(ng, sim.layout.nvars) * exchanges
    h = sim.halo_counters
    return [
        checks.Verdict("halo_messages_match_model",
                       h.messages == want_msgs,
                       f"{h.messages} measured vs {want_msgs} "
                       f"= total_messages() x {exchanges}"),
        checks.Verdict("halo_bytes_match_model",
                       h.bytes_exchanged == want_bytes,
                       f"{h.bytes_exchanged} measured vs {want_bytes} "
                       f"= total_halo_bytes x {exchanges}"),
    ]


def _run_campaign(cfg: dict, tracer) -> dict:
    jobs, svc = cli_service(cfg["spec_path"])
    t_setup = clock()
    res = {"setup_s": t_setup - T0}
    if cfg["setup_only"]:
        return res
    report = replay = None
    error = None
    t_march = replay_s = 0.0
    try:
        report = svc.run()
        t_march = clock() - t_setup
        ledger_bytes = os.path.getsize(cfg["ledger"])
        t_replay = clock()
        _jobs, svc2 = cli_service(cfg["spec_path"])
        replay = svc2.run()
        replay_s = clock() - t_replay
    except Exception as err:  # the program failed: report, do not crash
        error = f"{type(err).__name__}: {err}"
    t_end = clock()
    res.update(wall_s=t_end - T0, march_s=t_march, peak_rss_mb=peak_rss_mib())
    # ---- the clock has stopped --------------------------------------
    if tracer is not None:
        tracer.uninstall()
    import checks

    done = [] if report is None else \
        [j for j in report.jobs if j.status == "done"]
    res["attempted"], res["failed"] = len(jobs), len(jobs) - len(done)
    res["grinds"] = [j.result.grind_time_ns for j in done]
    verdicts = []
    if error is not None:
        verdicts.append(checks.Verdict("program", False, error))
    per_check: dict = {}
    for j in done:
        view = checks.CaseView(cfg["cases"][j.index])
        q0 = jobs[j.index].case.initial_conservative()
        found = checks.state_checks(j.result.q, view.totals(q0),
                                    j.result.time, view, cfg["premise_tol"])
        t_want = cfg["t_ends"][j.index]
        found.append(checks.Verdict(
            "horizon", abs(j.result.time - t_want) <= 1e-12 * t_want,
            f"t = {j.result.time!r}, wanted {t_want!r}"))
        for v in found:
            per_check.setdefault(v.name, []).append((j.name, v))
    for name, results in per_check.items():
        bad = [(job, v) for job, v in results if not v.ok]
        job, v = bad[0] if bad else results[-1]
        verdicts.append(checks.Verdict(
            f"{name} ({len(results)} jobs)", not bad,
            f"{len(bad)} failing; {job}: {v.detail}"))
    if replay is not None:
        first = {j.job_id: checks.digest(j.result.q) for j in done}
        again = {j.job_id: checks.digest(j.result.q) for j in replay.jobs
                 if j.result is not None}
        diff = [k for k in first if first[k] != again.get(k)]
        verdicts.append(checks.Verdict(
            "replay_equals_first_run",
            not diff and replay.replayed_done == len(jobs),
            f"{replay.replayed_done}/{len(jobs)} replayed, "
            f"{len(diff)} sha256 mismatches"))
    res["checks"] = [v.as_dict() for v in verdicts]
    if tracer is not None and report is not None:
        res["layers"] = _campaign_layers(tracer, ledger_bytes, replay_s)
    return res


# ----------------------------------------------------------------------
# Per-layer metrics of a traced round
# ----------------------------------------------------------------------
def _stream_device():
    """Host stand-in priced at a STREAM triad measured right now."""
    import dataclasses

    from repro.hardware.devices import default_host_device, stream_triad_gbps

    gbps = stream_triad_gbps()
    return gbps, dataclasses.replace(default_host_device(), mem_bw_gbps=gbps)


def _modeled_rhs_s(cells: int, nvars: int, device) -> dict:
    """Cost-model seconds of one RHS evaluation per stopwatch family."""
    from repro.hardware.costmodel import CostModel
    from repro.hardware.workloads import ProblemShape, rhs_workloads

    model = CostModel(device)
    family = {"pack": "packing", "weno": "weno", "riemann": "riemann",
              "other": "other"}
    out = dict.fromkeys(family.values(), 0.0)
    for work in rhs_workloads(ProblemShape(cells=cells, nvars=nvars, ndim=2)):
        out[family[work.kernel_class]] += model.kernel_time(work)
    return out


def _common_layers(tr) -> dict:
    return {
        "case.build_s": tr.total(("case.load", "case.from_dict",
                                  "case.initial")),
        "sim.build_s": tr.self_time(("sim.init", "svc.init")),
        "cfl.dt_ms": tr.median_ms("cfl.dt"),
        "rhs.calls": tr.count("rhs.call"),
        "rhs.call_ms": tr.median_ms("rhs.call"),
        "guard.validations": tr.count("guard.validate"),
        "guard.validate_ms": tr.median_ms("guard.validate"),
        "ckpt.write_ms": tr.median_ms("ckpt.save"),
        "ckpt.restore_ms": tr.median_ms("ckpt.restore"),
        "ledger.appends": tr.count("ledger.append"),
        "ledger.append_ms": tr.median_ms("ledger.append"),
    }


def _case_layers(tr, sims, cells, nvars) -> dict:
    import statistics

    layers = _common_layers(tr)
    walls = [r.wall_seconds for s in sims for r in s.history]
    laps: dict = {}
    for s in sims:
        for k, v in s.stopwatch.laps.items():
            laps[k] = laps.get(k, 0.0) + v
    gbps, device = _stream_device()
    per_rhs = _modeled_rhs_s(cells, nvars, device)
    calls = layers["rhs.calls"]
    sweep = [s.rhs.sweep_counters for s in sims]
    halo = sims[0].halo_counters
    cluster_s = tr.total(("cluster.run",))
    layers.update({
        "step.count": len(walls),
        "step.median_ms": statistics.median(walls) * 1e3 if walls else 0.0,
        "rhs.weno_passes": sum(c.weno_passes for c in sweep),
        "rhs.face_mb": sum(c.bytes_reconstructed_strided
                           + c.bytes_reconstructed_contiguous
                           for c in sweep) / 1e6,
        "rhs.limited_faces": sum(s.rhs.limited_faces for s in sims),
        "guard.retries": sum(s.recovery.retries for s in sims),
        "guard.rollbacks": sum(s.recovery.rollbacks for s in sims),
        "ckpt.writes": tr.count("ckpt.save"),
        "ckpt.mb": sum(tr.extras("ckpt.save")) / 1e6,
        "halo.messages": halo.messages if halo else 0,
        "halo.mb": halo.bytes_exchanged / 1e6 if halo else 0.0,
        "halo.waits": halo.waits if halo else 0,
        "halo.wait_ms": halo.wait_ns / 1e6 if halo else 0.0,
        "halo.reductions": halo.reductions if halo else 0,
        "cluster.overhead_s": (cluster_s - sum(r.wall_seconds
                                               for r in sims[0].history)
                               if halo else 0.0),
        "stream.gbps": gbps,
    })
    for fam in ("packing", "weno", "riemann", "other"):
        layers[f"rhs.{fam}_s"] = laps.get(fam, 0.0)
        layers[f"rhs.{fam}_model_s"] = per_rhs[fam] * calls
    return layers


def _campaign_layers(tr, ledger_bytes: int, replay_s: float) -> dict:
    import statistics

    layers = _common_layers(tr)
    tele = [t for t in tr.extras("svc.batch") if t is not None]
    per_step = [t["wall_seconds"] / t["steps"] for t in tele if t["steps"]]
    layers.update({
        "step.count": sum(t["steps"] for t in tele),
        "step.median_ms": (statistics.median(per_step) * 1e3
                           if per_step else 0.0),
        "svc.batches": tr.count("svc.batch"),
        "svc.batch_s": tr.total(("svc.batch",)),
        "ens.stacked_steps": sum(t["steps"] for t in tele),
        "ens.case_steps": sum(sum(t["case_steps"]) for t in tele),
        "ens.retires": sum(t["retire_events"] for t in tele),
        "ckpt.writes": sum(t["checkpoints_written"] for t in tele),
        "ledger.kb": ledger_bytes / 1e3,
        "svc.replay_s": replay_s,
    })
    return layers


def main() -> int:
    import json

    with open(sys.argv[1]) as fh:
        cfg = json.load(fh)
    res = run_round(cfg)
    with open("result.json.tmp", "w") as fh:
        json.dump(res, fh)
    os.replace("result.json.tmp", "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
