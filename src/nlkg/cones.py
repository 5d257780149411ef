"""Light-cone geometry, the Lyapunov functionals L(t) and Z(t), the
energy-flux identity, averaged cone estimates, and normalized cone-bound
monitors.

All cones open forward from a vertex at time zero: the slice at time t is
the ball |x - x0| < t.  Every bound monitor is reported normalized
(quantity divided by its predicted power of t) so boundedness, never a
specific constant, is the checkable claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .conslaws import TensorKind, _density, tensor_kind
from .errors import DomainError
from .grid import GridSpec, State
from .norms import _energy_density, _Pieces, critical_exponent
from .solver import Trajectory

__all__ = [
    "ConeSpec",
    "DiagnosticSeries",
    "lyapunov_series",
    "energy_flux_check",
    "averaged_gradient_bound",
    "cone_monitor",
    "cone_audit",
    "ConeAudit",
]


@dataclass(frozen=True)
class ConeSpec:
    """Forward light cone {(t,x): 0 < t <= top_time, |x - vertex| < t}."""

    vertex: tuple
    top_time: float

    def __post_init__(self):
        if self.top_time <= 0.0:
            raise DomainError("cone top time must be positive")
        object.__setattr__(self, "vertex", tuple(float(c) for c in np.atleast_1d(self.vertex)))

    def validate_against(self, grid: GridSpec, time: float | None = None) -> None:
        """The audited slice (radius = time, or the full cone) must fit the box
        with margin >= 3h."""
        r = self.top_time if time is None else time
        if r > grid.max_fit_radius:
            raise DomainError(
                f"cone slice radius {r} does not fit in box of side {grid.box_length} "
                f"with a 3h margin"
            )
        if len(self.vertex) != grid.d:
            raise DomainError(f"cone vertex must have {grid.d} components")


@dataclass(frozen=True)
class DiagnosticSeries:
    """A named scalar time series with regime tag and free-form metadata."""

    name: str
    times: np.ndarray
    values: np.ndarray
    regime: str = ""
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape:
            raise DomainError("times and values must have matching length")
        if t.size and np.any(np.diff(t) <= 0.0):
            raise DomainError("series times must be strictly increasing")
        if v.size and not np.all(np.isfinite(v)):
            raise DomainError("series values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def _slice(state: State, cone: ConeSpec, nl_coeff: float, want) -> dict:
    """The quantities named in `want` on the slice |x - x0| < t, all from one
    norms._Pieces restricted to the slice (one gradient, at the slice's points
    alone), and the monitors' t/2 ball restricted from that: "L" and "Z",
    "monitor" (for :func:`cone_monitor`), "boundary" and "bulk" (the two
    sides of :func:`energy_flux_check`)."""
    t = state.time
    pc = _Pieces(state, nl_coeff, cone.vertex)
    ins = pc.ball(t)
    r = ins.dist
    out = {}
    if "L" in want:
        out["L"] = ins.integral(_density(ins, TensorKind("mod_dilation")))
    if "Z" in want:
        kind = tensor_kind("combined", state)
        out["Z"] = ins.integral(_density(ins, kind) * (t**2 - r**2) ** kind.alpha)
    if "monitor" in want:
        # (mass, grad, pth) normalized as cone_monitor states (super-conformal grad: the
        # weighted slice integral, summed in t later), then the plain slice gradient
        s_c = critical_exponent(pc.d, pc.p).s_c
        half = ins.ball(0.5 * t)
        mass = half.integral(half.u**2)
        pth = ins.integral(np.abs(ins.u) ** (0.5 * (pc.p + 4.0)))
        full_grad = ins.v**2 + ins.grad_sq
        if s_c > 0.5:
            row = (mass / t ** (pc.p * pc.d / (pc.p + 4.0)),
                   ins.integral(full_grad * (1.0 - r / t) ** 2), pth)
        else:
            row = (mass / t ** (2.0 * s_c),
                   half.integral(half.v**2 + half.grad_sq) * t ** (2.0 * (1.0 - s_c)),
                   pth / t ** (2.0 * s_c - 1.0))
        out["monitor"] = row + (ins.integral(full_grad),)
    if "boundary" in want:
        out["boundary"] = ins.integral(ins.energy_density * ((t**2 - r**2) / t))
    if "bulk" in want:
        # the last term is the energy density at rest (u_t = 0) with the angular gradient
        rest = _energy_density(ins.u, 0.0, sum(a**2 for a in ins.angular), pc.m, pc.p, pc.nl)
        out["bulk"] = (ins.integral((ins.v + ins.u_r) ** 2 * (0.25 * (1.0 + r / t) ** 2))
                       + ins.integral((ins.v - ins.u_r) ** 2 * (0.25 * (1.0 - r / t) ** 2))
                       + ins.integral(rest * (1.0 + (r / t) ** 2)))
    return out


def _check_window(which: str, t_floor: float) -> None:
    if which not in ("L", "Z"):
        raise DomainError(f"which must be 'L' or 'Z', got {which!r}")
    if not t_floor >= 0.0:
        raise DomainError(f"t_floor must be >= 0, got {t_floor}")


def lyapunov_series(traj: Trajectory, cone: ConeSpec, which: str = "L",
                    t_floor: float = 0.0) -> DiagnosticSeries:
    """L(t) or Z(t) on each snapshot with t_floor < t <= top_time.  For solutions
    defined in the cone, L (the modified-dilation density over |x - x0| < t) is
    nondecreasing for p >= 4/(d-1) and nonnegative for s_c >= 1/2; Z (the combined
    density weighted by (t^2 - |x - x0|^2)^alpha) needs the sub-conformal regime,
    alpha = 1/2 - s_c > 0, and is nondecreasing and nonnegative there."""
    _check_window(which, t_floor)
    sel = np.flatnonzero((traj.times > t_floor) & (traj.times <= cone.top_time))
    if sel.size:
        cone.validate_against(traj.grid, float(traj.times[sel[-1]]))
    return _series(critical_exponent(traj.grid.d, traj.exponent), cone, which, traj.times[sel],
                   [_slice(traj.snapshots[i], cone, traj.nl_coeff, {which})[which] for i in sel])


def _series(params, cone: ConeSpec, which: str, times, values) -> DiagnosticSeries:
    return DiagnosticSeries(f"{which}_functional", times, values, params.regime,
                            {"vertex": list(cone.vertex), "top_time": cone.top_time})


def energy_flux_check(traj: Trajectory, cone: ConeSpec, t0: float, t1: float):
    """Both sides of the cone energy-flux identity and their relative gap.

    Boundary side: int (t^2-|x|^2)/t * e0 over the slice, at t1 minus t0.
    Bulk side: trapezoid in t of the null-decomposed integrand
    1/4 (1+|x|/t)^2 (u_t+u_r)^2 + 1/4 (1-|x|/t)^2 (u_t-u_r)^2
    + (1+|x|^2/t^2) (1/2 |angular grad|^2 + m^2/2 u^2 - 1/(p+2)|u|^{p+2}).
    """
    if not (t0 >= 0.0 and t1 <= cone.top_time):
        raise DomainError(f"window t0={t0}, t1={t1} outside the cone's [0, {cone.top_time}]")
    sel = traj.window(t0, t1)
    times = traj.times[sel]
    if len(sel) < 3:
        raise DomainError("need at least 3 snapshots between t0 and t1")
    if abs(times[0] - t0) > 1e-9 or abs(times[-1] - t1) > 1e-9:
        raise DomainError("t0 and t1 must be snapshot times")
    cone.validate_against(traj.grid, t1)
    ends = (sel[0], sel[-1])
    return _flux(times, [_slice(traj.snapshots[i], cone, traj.nl_coeff,
                                {"bulk", "boundary"} if i in ends else {"bulk"}) for i in sel])


def _flux(times, rows) -> tuple:
    """(lhs, rhs, gap) of the flux identity from its per-slice sides."""
    lhs = rows[-1]["boundary"] - rows[0]["boundary"]
    rhs = float(np.trapezoid([row["bulk"] for row in rows], np.array(times)))
    return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def averaged_gradient_bound(traj: Trajectory, cone: ConeSpec, t0: float,
                            alpha: float = 1.0) -> float:
    """Normalized cone-weighted spacetime integral of field and gradient.

    Conformal and super-conformal (s_c >= 1/2): integrate
    (t-|x|)^{d+1} |grad_{t,x} u|^2 + (t-|x|)^{d-1} u^2 over
    t in [t0, (1+alpha) t0], |x| < alpha t, divided by alpha t0^{d+1}.
    Sub-conformal: (t-|x|)^{d+2-2s_c} |grad_{t,x} u|^2 +
    (t-|x|)^{d-2s_c} u^2 over t in [t0, 2 t0], |x| < t, divided by t0^{d+1}.
    A bounded-in-refinement monitor, not an asserted constant.  The window
    [t0, t_hi] must lie in the cone and end by the run's last snapshot.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    g = traj.grid
    params = critical_exponent(g.d, traj.exponent)
    subc = params.s_c < 0.5
    t_hi = 2.0 * t0 if subc else (1.0 + alpha) * t0
    t_end = float(traj.times[-1])
    if not (t0 > 0.0 and t_hi <= min(cone.top_time, t_end) + 1e-12):
        raise DomainError(f"window t0={t0}, t_hi={t_hi} outside the cone's (0, {cone.top_time}] "
                          f"or past the run's end time {t_end}")
    sel = traj.window(t0, t_hi)
    if len(sel) < 2:
        raise DomainError(f"need at least 2 snapshots in [{t0}, {t_hi}]")
    cone.validate_against(g, t_hi)
    d = g.d
    w_grad = d + 2.0 - 2.0 * params.s_c if subc else d + 1.0
    w_mass = d - 2.0 * params.s_c if subc else d - 1.0

    def slice_value(s: State) -> float:
        t = s.time
        ins = _Pieces(s, apex=cone.vertex).ball(t if subc else alpha * t)
        return (ins.integral((ins.v**2 + ins.grad_sq) * (t - ins.dist) ** w_grad)
                + ins.integral(ins.u**2 * (t - ins.dist) ** w_mass))

    total = float(np.trapezoid([slice_value(traj.snapshots[i]) for i in sel], traj.times[sel]))
    norm = alpha * t0 ** (d + 1.0) if not subc else t0 ** (d + 1.0)
    return total / norm


def cone_monitor(traj: Trajectory, cone: ConeSpec) -> dict:
    """Normalized cone-bound monitor series; boundedness is the prediction.

    - mass_half_cone: int_{|x|<t/2} u^2 dx over t^{pd/(p+4)} (super-conformal)
      or t^{2 s_c} (otherwise);
    - grad_half_cone: t^{2(1-s_c)} int_{|x|<t/2} |grad_{t,x} u|^2 dx when
      s_c <= 1/2, or the running cone integral of (1-|x|/t)^2 |grad_{t,x} u|^2
      when s_c > 1/2;
    - pth_mass_cone: int_{|x|<t} |u|^{(p+4)/2} dx, over 1 (super-conformal)
      or t^{2 s_c - 1} (otherwise);
    - dyadic_grad_avg: the [tau, 2 tau] cone integrals of |grad_{t,x} u|^2,
      over 1 (super-conformal) or tau^{2 s_c - 1} (otherwise).
    """
    return cone_audit(traj, cone, t_floor=cone.top_time)[1]


def _monitors(params, cone: ConeSpec, times: list, rows: list) -> dict:
    """The monitor series from the per-slice "monitor" rows (mass, grad, pth, plain)."""
    superc = params.s_c > 0.5
    meta = {"vertex": list(cone.vertex), "top_time": cone.top_time, "s_c": params.s_c}
    names = ("mass_half_cone", "grad_half_cone", "pth_mass_cone", "dyadic_grad_avg")
    if not rows:
        empty = np.array([])
        return {name: DiagnosticSeries(name, empty, empty, params.regime, dict(meta))
                for name in names}
    times = np.array(times)
    mass_n, grad_n, pth_n, plain = (np.array(col) for col in zip(*rows))
    if superc:
        grad_n = np.concatenate([[0.0], np.cumsum(0.5 * (grad_n[1:] + grad_n[:-1])
                                                  * np.diff(times))])

    # dyadic [tau, 2 tau] averages of the plain cone gradient integral
    tau_vals, dyadic = [], []
    tau = times[0]
    while 2.0 * tau <= times[-1] + 1e-12:
        in_win = (times >= tau - 1e-12) & (times <= 2.0 * tau + 1e-12)
        if np.count_nonzero(in_win) >= 2:
            val = float(np.trapezoid(plain[in_win], times[in_win]))
            tau_vals.append(tau)
            dyadic.append(val if superc else val / tau ** (2.0 * params.s_c - 1.0))
        tau *= 2.0
    return {name: DiagnosticSeries(name, tau_vals if name == "dyadic_grad_avg" else times,
                                   np.array(vals), params.regime, dict(meta))
            for name, vals in zip(names, (mass_n, grad_n, pth_n, dyadic))}


def cone_audit(traj: Trajectory, cone: ConeSpec, which: str = "L", t_floor: float = 0.0):
    """Everything `nlkg cones` writes, in one pass with one norms._Pieces
    (one gradient) per snapshot in 0 < t <= top_time: the series of
    :func:`lyapunov_series` over t > t_floor, the monitors of
    :func:`cone_monitor`, and the :func:`energy_flux_check` dict (t0, t1,
    lhs, rhs, gap) over the series' snapshots, {} when there are fewer than 3.
    Returns (series, monitors, flux): those snapshots folded through :class:`ConeAudit`."""
    audit = ConeAudit(cone, traj.exponent, which, t_floor, traj.nl_coeff)
    for i in np.flatnonzero((traj.times > 0.0) & (traj.times <= cone.top_time)):
        audit.add(traj.snapshots[i])
    return audit.finish()


class ConeAudit:
    """:func:`cone_audit` as a reducer for a run of nonlinearity exponent p:
    :meth:`add` each state of the run in time order (say from :func:`evolve`'s
    ``on_record``), then :meth:`finish`.  It keeps each slice's scalars only,
    so no State outlives its :meth:`add`."""

    def __init__(self, cone: ConeSpec, exponent: float, which: str = "L", t_floor: float = 0.0,
                 nl_coeff: float = 1.0):
        _check_window(which, t_floor)
        self.params = critical_exponent(len(cone.vertex), exponent)
        self.cone, self.which, self.t_floor, self.nl = cone, which, t_floor, nl_coeff
        self.times, self.rows = [], []  # a row per slice in the cone

    def add(self, state: State) -> None:
        """Reduce one state: a slice when 0 < t <= top_time, checked against the box."""
        t = state.time
        if state.exponent != self.params.p:
            raise DomainError(f"a state of exponent p={state.exponent} in an audit of "
                              f"p={self.params.p}")
        if 0.0 < t <= self.cone.top_time:
            self.cone.validate_against(state.grid, t)
            want = {"monitor", self.which, "bulk", "boundary"} if t > self.t_floor else {"monitor"}
            self.times.append(t)
            self.rows.append(_slice(state, self.cone, self.nl, want))

    def finish(self):
        """(series, monitors, flux) as :func:`cone_audit` returns them."""
        win = [i for i, t in enumerate(self.times) if t > self.t_floor]
        times, rows = [self.times[i] for i in win], [self.rows[i] for i in win]
        flux = {}
        if len(win) >= 3:
            flux = dict(zip(("t0", "t1", "lhs", "rhs", "gap"),
                            (times[0], times[-1], *_flux(times, rows))))
        params, cone, which = self.params, self.cone, self.which
        return (_series(params, cone, which, times, [row[which] for row in rows]),
                _monitors(params, cone, self.times, [row["monitor"] for row in self.rows]), flux)
