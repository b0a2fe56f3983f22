"""Spans around the program's public entry points, installed from outside.

The traced run wraps, from this file only, the public calls of each
layer (case build, solver construction, dt, RHS, state validation,
checkpoint I/O, cluster run, batch supervision, ledger appends).  Each
wrapped call records one span — name, start, end and the span it ran
inside — in memory; :meth:`Tracer.total` and friends turn them into
the per-layer metrics.  Nothing in ``src/`` changes.

Spans are recorded in this process only.  Work the program runs in a
forked child (rank workers, supervised ensemble batches) is reported
from what the program returns from that child, never from spans.
"""

from __future__ import annotations

import functools
import statistics
import time


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, keep=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``keep(args, result)`` may return a value stored with the span
        (a checkpoint's size, a batch's returned telemetry).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if keep is not None:
                span[4] = keep(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------------
    def _named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def count(self, name: str) -> int:
        return len(self._named(name))

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self._named(name)]

    def median_ms(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def extras(self, name: str) -> list:
        return [s[4] for s in self._named(name)]

    def total(self, names: tuple[str, ...]) -> float:
        """Seconds inside spans of ``names``, nested ones counted once."""
        out = 0.0
        for s in self.spans:
            if s[0] not in names or s[2] is None:
                continue
            parent = s[3]
            nested = False
            while parent >= 0:
                if self.spans[parent][0] in names:
                    nested = True
                    break
                parent = self.spans[parent][3]
            if not nested:
                out += s[2] - s[1]
        return out

    def self_time(self, names: tuple[str, ...]) -> float:
        """Seconds inside ``names`` spans minus their direct children."""
        out = 0.0
        for i, s in enumerate(self.spans):
            if s[0] in names and s[2] is not None:
                out += s[2] - s[1]
                out -= sum(c[2] - c[1] for c in self.spans
                           if c[3] == i and c[2] is not None)
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    import repro.io.case_files as case_files
    import repro.solver.simulation as simulation
    from repro.cluster import ProcessCluster
    from repro.ensemble import EnsembleService
    from repro.ensemble.ledger import JobLedger
    from repro.ensemble.supervisor import BatchSupervisor
    from repro.io.checkpoint import CheckpointManager
    from repro.solver import RHS, Simulation
    from repro.solver.case import Case

    def file_size(_args, path):
        return path.stat().st_size

    def batch_telemetry(_args, outcome):
        if not outcome.get("ok"):
            return None
        steps = [r.steps for r in outcome["results"]]
        return {**outcome["telemetry"], "case_steps": steps}

    tracer.wrap(case_files, "load_case", "case.load")
    tracer.wrap(case_files, "case_from_dict", "case.from_dict")
    tracer.wrap(Case, "initial_conservative", "case.initial")
    tracer.wrap(Simulation, "__init__", "sim.init")
    tracer.wrap(EnsembleService, "__init__", "svc.init")
    tracer.wrap(Simulation, "compute_dt", "cfl.dt")
    tracer.wrap(RHS, "__call__", "rhs.call")
    tracer.wrap(simulation, "check_state", "guard.validate")
    tracer.wrap(CheckpointManager, "save", "ckpt.save", keep=file_size)
    tracer.wrap(Simulation, "restore_latest", "ckpt.restore")
    tracer.wrap(ProcessCluster, "run", "cluster.run")
    tracer.wrap(BatchSupervisor, "run", "svc.batch", keep=batch_telemetry)
    tracer.wrap(JobLedger, "append", "ledger.append")
