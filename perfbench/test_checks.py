"""The benchmark's own output checks reject corrupted states.

Each check must accept a real final state of the program and reject the
same state after one deliberate corruption.  Run from the repository
root::

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import SHIPPED_BUBBLE, WORKLOADS, campaign_jobs  # noqa: E402


def _march(case_dict: dict, steps: int, premise_tol: float):
    from repro.bc import BoundarySet
    from repro.io.case_files import case_from_dict
    from repro.solver import Simulation

    case = case_from_dict(case_dict)
    sim = Simulation(case, BoundarySet.all_extrapolation(2))
    view = checks.CaseView(case_dict)
    initial = view.totals(sim.q)
    sim.run(n_steps=steps)
    return np.array(sim.q), initial, sim.time, view, premise_tol


def _shipped(n: int) -> dict:
    spec = json.loads((ROOT / SHIPPED_BUBBLE).read_text())
    case = {k: spec[k] for k in ("grid", "fluids", "patches")}
    case["grid"]["shape"] = [n, n]
    return case


@pytest.fixture(scope="module", params=["shipped_64", "campaign_32"])
def real(request):
    # Boundary-premise tolerances as the workloads set them per grid:
    # after 10 steps the strips depart by ~2e-9 at 64², ~4e-5 at 32².
    if request.param == "shipped_64":
        return _march(_shipped(64), steps=10, premise_tol=1e-8)
    base = json.loads((ROOT / SHIPPED_BUBBLE).read_text())
    case = campaign_jobs(base, seed=7, n_jobs=1)[0]["case"]
    return _march(case, steps=10,
                  premise_tol=WORKLOADS["campaign_32"].premise_tol)


def test_real_output_passes_every_check(real):
    q, initial, t, view, tol = real
    for verdict in checks.state_checks(q, initial, t, view, tol):
        assert verdict.ok, verdict
    assert checks.same_bytes("copy", checks.digest(q),
                             checks.digest(q.copy())).ok


def test_negative_partial_density_rejected(real):
    q, _initial, _t, view, _tol = real
    bad = q.copy()
    bad[0, view.nx // 2, view.bubble_free_row()] = -1e-9
    verdict = checks.physical_state(bad, view)
    assert not verdict.ok and "alpha_rho[0]" in verdict.detail


def test_one_cell_mass_defect_rejected(real):
    q, initial, t, view, tol = real
    bad = q.copy()
    # An air cell ahead of the shock: one extra cell's worth of air.
    bad[0, view.nx // 2, view.bubble_free_row()] *= 2.0
    assert checks.physical_state(bad, view).ok
    verdict = checks.conservation(bad, initial, t, view, tol)
    assert not verdict.ok and "alpha_rho[0]" in verdict.detail


@pytest.mark.parametrize("cells", [3, -1])
def test_shifted_shock_rejected(real, cells):
    # Three cells ahead, or one behind: after 10 steps the shock has
    # travelled ~2.4 cells (64²) or ~1.6 (32²), so one cell behind is a
    # shock ~40-60% too slow.
    q, _initial, t, view, _tol = real
    bad = np.roll(q, cells, axis=1)
    # The columns the roll wrapped round repeat the boundary column.
    if cells > 0:
        bad[:, :cells] = q[:, :1]
    else:
        bad[:, cells:] = q[:, -1:]
    assert checks.physical_state(bad, view).ok
    assert not checks.shock_position(bad, t, view).ok


def test_flipped_byte_rejected(real):
    q, *_ = real
    flipped = q.copy()
    flipped.reshape(-1).view(np.uint8)[12345] ^= 0x01
    assert not checks.same_bytes("flip", checks.digest(q),
                                 checks.digest(flipped)).ok

