"""Output checks that do not come from the program.

Every check here works from the case *input* (the JSON dictionary the
benchmark wrote) and the final conservative state, with this file's own
stiffened-gas relations.  Nothing is imported from ``repro``, so a bug
in the program's equation of state, boundary code or bookkeeping cannot
hide itself by also being in the check.

Each check returns a :class:`Verdict`; none raises on a bad state.

State layout (the five-equation model of the paper, 2D, ``ncomp``
fluids)::

    q[0:ncomp]            alpha_i rho_i      partial densities
    q[ncomp:ncomp+2]      rho u, rho v       momentum
    q[ncomp+2]            rho E              total energy
    q[ncomp+3:]           alpha_1..alpha_{ncomp-1}

The shock-bubble cases used here all share one shape: patch 0 is the
quiescent background, patch 1 is the post-shock half-space ``x <
threshold`` moving in +x, and later patches are (smeared) bubbles.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

#: Relative roundoff allowance of a volume-integrated total.
ROUNDOFF_REL = 1e-11

#: Cells the boundary flux depends on (the WENO5 stencil half-width).
STRIP = 3

#: The incident shock must lie within SHOCK_TRAVEL_SHARE of its
#: predicted travel S t of x0 + S t (a 25% speed error), clamped to
#: [SHOCK_FLOOR_CELLS, SHOCK_CAP_CELLS] cells.
SHOCK_TRAVEL_SHARE = 0.25
SHOCK_FLOOR_CELLS = 0.25
SHOCK_CAP_CELLS = 2.0


@dataclass(frozen=True)
class Verdict:
    name: str
    ok: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "ok": bool(self.ok), "detail": self.detail}


# ----------------------------------------------------------------------
# Case geometry and stiffened-gas relations
# ----------------------------------------------------------------------
class CaseView:
    """What the checks need from a case dictionary."""

    def __init__(self, case: dict) -> None:
        grid = case["grid"]
        (self.x0, self.x1), (self.y0, self.y1) = grid["bounds"]
        self.nx, self.ny = grid["shape"]
        self.dx = (self.x1 - self.x0) / self.nx
        self.dy = (self.y1 - self.y0) / self.ny
        fluids = case["fluids"]
        self.ncomp = len(fluids)
        self.gamma = np.array([f["gamma"] for f in fluids], dtype=float)
        self.pi_inf = np.array([f["pi_inf"] for f in fluids], dtype=float)
        # rho e = Gamma p + Pi per fluid, mixed by volume fraction.
        self.Gamma = 1.0 / (self.gamma - 1.0)
        self.Pi = self.gamma * self.pi_inf / (self.gamma - 1.0)
        patches = case["patches"]
        self.quiet = patches[0]
        self.inflow = patches[1]
        geom = self.inflow["geometry"]
        if geom["kind"] != "halfspace" or geom["axis"] != 0 \
                or geom.get("side", "below") != "below":
            raise ValueError("patch 1 must be the x-below post-shock half-space")
        # The initial condition sets each cell by its centre, so the
        # discrete shock starts on the first face past the threshold.
        centres = self.x0 + (np.arange(self.nx) + 0.5) * self.dx
        below = int(np.count_nonzero(centres < float(geom["threshold"])))
        self.shock_x0 = self.x0 + below * self.dx
        self.bubbles = [p["geometry"] for p in patches[2:]
                        if p["geometry"]["kind"] == "sphere"]
        self.smear = max([float(p.get("smear", 0.0)) for p in patches[2:]],
                         default=0.0)

    # -- indices -------------------------------------------------------
    @property
    def nvars(self) -> int:
        return 2 * self.ncomp + 2

    @property
    def energy(self) -> int:
        return self.ncomp + 2

    # -- thermodynamics ------------------------------------------------
    def full_alphas(self, adv: np.ndarray) -> np.ndarray:
        last = 1.0 - adv.sum(axis=0)
        return np.concatenate([adv, last[None]], axis=0)

    def mixture(self, alphas: np.ndarray):
        shape = (-1,) + (1,) * (alphas.ndim - 1)
        Gm = (alphas * self.Gamma.reshape(shape)).sum(axis=0)
        Pm = (alphas * self.Pi.reshape(shape)).sum(axis=0)
        return Gm, Pm

    def primitive(self, q: np.ndarray):
        """(rho, u, v, p, alphas, pi_m) from a conservative field."""
        n = self.ncomp
        rho = q[:n].sum(axis=0)
        u = q[n] / rho
        v = q[n + 1] / rho
        alphas = self.full_alphas(q[self.energy + 1:])
        Gm, Pm = self.mixture(alphas)
        p = (q[self.energy] - 0.5 * rho * (u * u + v * v) - Pm) / Gm
        return rho, u, v, p, alphas, Pm / (Gm + 1.0)

    def conservative(self, patch: dict) -> np.ndarray:
        """Conservative vector of a uniform patch state."""
        ar = np.array(patch["alpha_rho"], dtype=float)
        vel = np.array(patch["velocity"], dtype=float)
        p = float(patch["pressure"])
        adv = np.array(patch["alpha"], dtype=float)
        alphas = self.full_alphas(adv[:, None])[:, 0]
        Gm, Pm = self.mixture(alphas[:, None])
        rho = ar.sum()
        E = Gm[0] * p + Pm[0] + 0.5 * rho * float(vel @ vel)
        return np.concatenate([ar, rho * vel, [E], adv])

    def x_flux(self, q: np.ndarray) -> np.ndarray:
        """Physical x-flux of the conserved equations (alpha rows: 0)."""
        n = self.ncomp
        rho, u, _v, p, _a, _pi = self.primitive(q)
        f = np.zeros_like(q)
        f[:n] = q[:n] * u
        f[n] = q[n] * u + p
        f[n + 1] = q[n + 1] * u
        f[self.energy] = (q[self.energy] + p) * u
        return f

    def y_flux(self, q: np.ndarray) -> np.ndarray:
        n = self.ncomp
        rho, _u, v, p, _a, _pi = self.primitive(q)
        f = np.zeros_like(q)
        f[:n] = q[:n] * v
        f[n] = q[n] * v
        f[n + 1] = q[n + 1] * v + p
        f[self.energy] = (q[self.energy] + p) * v
        return f

    def shock_speed(self) -> float:
        """Rankine-Hugoniot speed from mass conservation across the shock."""
        r1 = sum(self.quiet["alpha_rho"])
        u1 = float(self.quiet["velocity"][0])
        r2 = sum(self.inflow["alpha_rho"])
        u2 = float(self.inflow["velocity"][0])
        return (r2 * u2 - r1 * u1) / (r2 - r1)

    def bubble_free_row(self) -> int:
        """Row whose centre is farthest from every bubble."""
        ys = self.y0 + (np.arange(self.ny) + 0.5) * self.dy
        clearance = np.full(self.ny, np.inf)
        for b in self.bubbles:
            cy = float(b["center"][1])
            clearance = np.minimum(clearance,
                                   np.abs(ys - cy) - float(b["radius"]))
        return int(np.argmax(clearance))

    def totals(self, q: np.ndarray) -> np.ndarray:
        return q.reshape(q.shape[0], -1).sum(axis=1) * self.dx * self.dy


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def physical_state(q: np.ndarray, case: CaseView) -> Verdict:
    """Finite cells, alpha_i rho_i >= 0, alpha in [0, 1], p > -pi_inf."""
    name = "physical_state"
    if q.shape != (case.nvars, case.nx, case.ny):
        return Verdict(name, False, f"state shape {q.shape}")
    if not np.isfinite(q).all():
        bad = np.argwhere(~np.isfinite(q))[0]
        return Verdict(name, False, f"non-finite value at {tuple(bad)}")
    dens = q[:case.ncomp]
    if (dens < 0.0).any():
        var, i, j = np.argwhere(dens < 0.0)[0]
        return Verdict(name, False,
                       f"alpha_rho[{var}] = {dens[var, i, j]:.3e} < 0 "
                       f"at cell ({i}, {j})")
    _rho, _u, _v, p, alphas, pi_m = case.primitive(q)
    if (alphas < 0.0).any() or (alphas > 1.0).any():
        var, i, j = np.argwhere((alphas < 0.0) | (alphas > 1.0))[0]
        return Verdict(name, False,
                       f"alpha[{var}] = {alphas[var, i, j]:.3e} outside "
                       f"[0, 1] at cell ({i}, {j})")
    if not (p > -pi_m).all():
        i, j = np.argwhere(~(p > -pi_m))[0]
        return Verdict(name, False,
                       f"p = {p[i, j]:.3e} <= -pi_inf at cell ({i}, {j})")
    return Verdict(name, True,
                   f"min alpha_rho {dens.min():.3e}, p in "
                   f"[{p.min():.4g}, {p.max():.4g}]")


def _premise_scale(case: CaseView) -> np.ndarray:
    """Per-variable scale the boundary departures are measured against."""
    n = case.ncomp
    q_in = case.conservative(case.inflow)
    q_qt = case.conservative(case.quiet)
    rho_in = q_in[:n].sum()
    c_in = math.sqrt(float(case.gamma.max()) * float(case.inflow["pressure"])
                     / rho_in)
    scale = np.maximum(np.abs(q_in), np.abs(q_qt))
    scale[n:n + 2] = np.maximum(scale[n:n + 2], rho_in * c_in)
    return np.maximum(scale, 1e-300)


def boundary_premise(q: np.ndarray, case: CaseView,
                     tol: float) -> tuple[Verdict, float]:
    """The boundary strips still hold the states the balance assumes.

    Left strip: the post-shock inflow state.  Right strip: the quiescent
    state.  Bottom/top rows: no transverse momentum.  Returns the
    verdict (deviation at most ``tol``) and the largest relative
    deviation found.
    """
    n = case.ncomp
    q_in = case.conservative(case.inflow)
    q_qt = case.conservative(case.quiet)
    scale = _premise_scale(case)[:, None, None]
    left = np.abs(q[:, :STRIP, :] - q_in[:, None, None]) / scale
    right = np.abs(q[:, -STRIP:, :] - q_qt[:, None, None]) / scale
    mom_y = np.abs(np.concatenate([q[n + 1, :, :1], q[n + 1, :, -1:]])) \
        / scale[n + 1]
    dev = float(max(left.max(), right.max(), mom_y.max()))
    return (Verdict("boundary_premise", dev <= tol,
                    f"max relative deviation {dev:.2e} (limit {tol:.0e})"),
            dev)


def _flux_sensitivity(flux, q_ref: np.ndarray, scale: np.ndarray,
                      cols) -> np.ndarray:
    """Per row, sum over ``cols`` of |dF/dq_w| * scale_w at ``q_ref``.

    The linearised change of a boundary flux when every listed component
    of the boundary state departs by its scale (forward differences).
    """
    f0 = flux(q_ref[:, None])[:, 0]
    out = np.zeros_like(f0)
    for w in cols:
        h = 1e-7 * scale[w]
        q = q_ref.copy()
        q[w] += h
        out += np.abs(flux(q[:, None])[:, 0] - f0) / h * scale[w]
    return out


def conservation(q: np.ndarray, initial_totals: np.ndarray, t: float,
                 case: CaseView, premise_tol: float) -> Verdict:
    """Partial masses and total energy match initial + t * inflow.

    The only boundary with a mass or energy flux is x = x0, where the
    uniform post-shock state enters; the right boundary is at rest and
    the top/bottom rows carry no transverse velocity.  The premise is
    asserted first, to ``premise_tol`` (set per grid by the workload).
    The allowance is roundoff plus the flux that boundary states
    departing by the whole ``premise_tol`` could carry for all of ``t``:
    a bound fixed before the state is read, not the end-of-run
    departure, so a departure that was larger earlier in the run and
    still within the tolerance is covered too.
    """
    name = "conservation"
    premise, dev = boundary_premise(q, case, premise_tol)
    if not premise.ok:
        return Verdict(name, False, f"premise failed: {premise.detail}")
    n = case.ncomp
    height = case.y1 - case.y0
    width = case.x1 - case.x0
    q_in = case.conservative(case.inflow)
    q_qt = case.conservative(case.quiet)
    f_in = case.x_flux(q_in[:, None])[:, 0]
    f_qt = case.x_flux(q_qt[:, None])[:, 0]
    predicted = initial_totals + t * height * (f_in - f_qt)
    actual = case.totals(q)
    scale = _premise_scale(case)
    every = range(case.nvars)
    left = _flux_sensitivity(case.x_flux, q_in, scale, every)
    right = _flux_sensitivity(case.x_flux, q_qt, scale, every)
    walls = np.maximum(_flux_sensitivity(case.y_flux, q_in, scale, [n + 1]),
                       _flux_sensitivity(case.y_flux, q_qt, scale, [n + 1]))
    slack = t * premise_tol * (height * (left + right) + 2.0 * width * walls)
    rows = list(range(n)) + [case.energy]
    worst = None
    for v in rows:
        allowed = (ROUNDOFF_REL * (abs(initial_totals[v])
                                   + t * height * abs(f_in[v]))
                   + slack[v])
        err = abs(actual[v] - predicted[v])
        ratio = err / allowed if allowed > 0 else math.inf
        if worst is None or ratio > worst[0]:
            worst = (ratio, v, err, allowed)
    ratio, v, err, allowed = worst
    label = "energy" if v == case.energy else f"alpha_rho[{v}]"
    return Verdict(name, ratio <= 1.0,
                   f"worst {label}: |defect| {err:.2e} vs allowed "
                   f"{allowed:.2e} (boundary premise holds to {dev:.1e}, "
                   f"limit {premise_tol:.0e})")


def shock_tolerance_cells(t: float, case: CaseView) -> float:
    """Allowed offset of the front: a share of the predicted travel."""
    travel = case.shock_speed() * t / case.dx
    return min(SHOCK_CAP_CELLS,
               max(SHOCK_FLOOR_CELLS, SHOCK_TRAVEL_SHARE * travel))


def shock_position(q: np.ndarray, t: float, case: CaseView) -> Verdict:
    """The incident shock in a bubble-free row sits at x0 + S t."""
    name = "shock_position"
    row = case.bubble_free_row()
    for b in case.bubbles:
        yc = case.y0 + (row + 0.5) * case.dy
        if abs(yc - float(b["center"][1])) <= float(b["radius"]) \
                + 5.0 * case.smear:
            return Verdict(name, False, f"no bubble-free row (row {row})")
    _rho, _u, _v, p, _a, _pi = case.primitive(q[:, :, row:row + 1])
    p = p[:, 0]
    mid = 0.5 * (float(case.inflow["pressure"]) + float(case.quiet["pressure"]))
    above = np.flatnonzero(p > mid)
    if above.size == 0 or above[-1] + 1 >= case.nx:
        return Verdict(name, False, f"no shock front in row {row}")
    i = int(above[-1])
    xs = case.x0 + (i + 0.5) * case.dx
    x_front = xs + (p[i] - mid) / (p[i] - p[i + 1]) * case.dx
    x_pred = case.shock_x0 + case.shock_speed() * t
    off = (x_front - x_pred) / case.dx
    tol = shock_tolerance_cells(t, case)
    return Verdict(name, abs(off) <= tol,
                   f"row {row}: front at x = {x_front:.4f}, "
                   f"x0 + S t = {x_pred:.4f} (S = {case.shock_speed():.4f}); "
                   f"{off:+.2f} cells (limit {tol:.2f})")


def digest(q: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(q).tobytes()).hexdigest()


def same_bytes(name: str, a: str, b: str) -> Verdict:
    """Two sha256 digests of states produced by different modes agree."""
    return Verdict(name, a == b, f"sha256 {a[:16]} vs {b[:16]}")


def state_checks(q: np.ndarray, initial_totals: np.ndarray, t: float,
                 case: CaseView, premise_tol: float) -> list[Verdict]:
    """The three physical checks of one final state."""
    return [physical_state(q, case),
            conservation(q, initial_totals, t, case, premise_tol),
            shock_position(q, t, case)]
