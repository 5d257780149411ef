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

from .conslaws import TensorKind, tensor_density, tensor_kind
from .errors import DomainError
from .grid import Field, GridSpec, State, displacement, radial_distance, spectral_gradient
from .norms import _energy_density, ball_integral, critical_exponent, gradient_square
from .solver import Trajectory

__all__ = [
    "ConeSpec",
    "DiagnosticSeries",
    "radial_angular_split",
    "L_functional",
    "Z_functional",
    "lyapunov_series",
    "energy_flux_check",
    "averaged_gradient_bound",
    "cone_monitor",
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


def radial_angular_split(gradient: list[Field], vertex) -> tuple[Field, list[Field]]:
    """Split a gradient into radial and angular parts about a vertex.

    u_r = (x/|x|) . grad u (defined as 0 at the vertex point) and the
    angular remainder; u_r^2 + |angular|^2 = |grad u|^2 pointwise.
    """
    grid = gradient[0].grid
    u_r = _radial_derivative([g.values for g in gradient], grid, vertex)
    r = radial_distance(grid, vertex)
    safe_r = np.where(r == 0.0, 1.0, r)
    angular = [Field(grid, g.values - np.where(r == 0.0, 0.0, dx / safe_r) * u_r)
               for dx, g in zip(displacement(grid, vertex), gradient)]
    return Field(grid, u_r), angular


def _radial_derivative(gradient: list[np.ndarray], grid: GridSpec, vertex) -> np.ndarray:
    """u_r = (x/|x|) . grad u about a vertex, 0 at the vertex point."""
    r = radial_distance(grid, vertex)
    u_r = sum(dx * g for dx, g in zip(displacement(grid, vertex), gradient))
    return np.where(r == 0.0, 0.0, u_r / np.where(r == 0.0, 1.0, r))


def L_functional(state: State, cone: ConeSpec, nl_coeff: float = 1.0) -> float:
    """L(t): the modified-dilation density integrated over the cone slice.

    Nondecreasing in t for p >= 4/(d-1) and nonnegative for s_c >= 1/2
    (for solutions defined in the cone).
    """
    t = state.time
    if not (0.0 < t <= cone.top_time):
        raise DomainError(f"state time {t} outside the cone's (0, {cone.top_time}]")
    cone.validate_against(state.grid, t)
    dens = tensor_density(state, TensorKind("mod_dilation"), cone.vertex, nl_coeff)
    return ball_integral(dens.values, state.grid, cone.vertex, t)


def Z_functional(state: State, cone: ConeSpec, nl_coeff: float = 1.0) -> float:
    """Z(t): combined density integrated over the slice with weight (t^2-|x|^2)^alpha.

    Requires the sub-conformal regime (alpha = 1/2 - s_c > 0); nondecreasing
    in t and nonnegative for solutions defined in the cone.
    """
    t = state.time
    if not (0.0 < t <= cone.top_time):
        raise DomainError(f"state time {t} outside the cone's (0, {cone.top_time}]")
    cone.validate_against(state.grid, t)
    kind = tensor_kind("combined", state)
    dens = tensor_density(state, kind, cone.vertex, nl_coeff)
    return ball_integral(dens.values, state.grid, cone.vertex, t,
                         lambda r: (t**2 - r**2) ** kind.alpha)


def lyapunov_series(traj: Trajectory, cone: ConeSpec, which: str = "L",
                    t_floor: float = 0.0) -> DiagnosticSeries:
    """L(t) or Z(t) sampled over a trajectory's snapshots inside the cone."""
    fn = L_functional if which == "L" else Z_functional
    params = critical_exponent(traj.snapshots[0].grid.d, traj.snapshots[0].exponent)
    times, vals = [], []
    for s in traj.snapshots:
        if t_floor < s.time <= cone.top_time:
            times.append(s.time)
            vals.append(fn(s, cone, traj.nl_coeff))
    return DiagnosticSeries(name=f"{which}_functional", times=np.array(times),
                            values=np.array(vals), regime=params.regime,
                            metadata={"vertex": list(cone.vertex), "top_time": cone.top_time})


def energy_flux_check(traj: Trajectory, cone: ConeSpec, t0: float, t1: float):
    """Both sides of the cone energy-flux identity and their relative gap.

    Boundary side: int (t^2-|x|^2)/t * e0 over the slice, at t1 minus t0.
    Bulk side: trapezoid in t of the null-decomposed integrand
    1/4 (1+|x|/t)^2 (u_t+u_r)^2 + 1/4 (1-|x|/t)^2 (u_t-u_r)^2
    + (1+|x|^2/t^2) (1/2 |angular grad|^2 + m^2/2 u^2 - 1/(p+2)|u|^{p+2}).
    """
    sel = [s for s in traj.snapshots if t0 - 1e-12 <= s.time <= t1 + 1e-12]
    if len(sel) < 3:
        raise DomainError("need at least 3 snapshots between t0 and t1")
    if abs(sel[0].time - t0) > 1e-9 or abs(sel[-1].time - t1) > 1e-9:
        raise DomainError("t0 and t1 must be snapshot times")
    cone.validate_against(sel[-1].grid, t1)
    nl = traj.nl_coeff

    def boundary(s: State) -> float:
        dens = tensor_density(s, TensorKind("energy"), cone.vertex, nl)
        t = s.time
        return ball_integral(dens.values, s.grid, cone.vertex, t, lambda r: (t**2 - r**2) / t)

    def bulk(s: State) -> float:
        g = s.grid
        t, m, p = s.time, s.mass_param, s.exponent
        u_r, angular = radial_angular_split(spectral_gradient(s.u), cone.vertex)
        ang_sq = sum(a.values**2 for a in angular)
        v, ur, u = s.v.values, u_r.values, s.u.values
        # the last term is the energy density at rest (u_t = 0) with the angular gradient
        return (ball_integral(lambda at: (at(v) + at(ur)) ** 2, g, cone.vertex, t,
                              lambda r: 0.25 * (1.0 + r / t) ** 2)
                + ball_integral(lambda at: (at(v) - at(ur)) ** 2, g, cone.vertex, t,
                                lambda r: 0.25 * (1.0 - r / t) ** 2)
                + ball_integral(lambda at: _energy_density(at(u), 0.0, at(ang_sq), m, p, nl),
                                g, cone.vertex, t, lambda r: 1.0 + (r / t) ** 2))

    lhs = boundary(sel[-1]) - boundary(sel[0])
    ts = np.array([s.time for s in sel])
    rhs = float(np.trapezoid([bulk(s) for s in sel], ts))
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, gap


def averaged_gradient_bound(traj: Trajectory, cone: ConeSpec, t0: float,
                            alpha: float = 1.0) -> float:
    """Normalized cone-weighted spacetime integral of field and gradient.

    Conformal and super-conformal (s_c >= 1/2): integrate
    (t-|x|)^{d+1} |grad_{t,x} u|^2 + (t-|x|)^{d-1} u^2 over
    t in [t0, (1+alpha) t0], |x| < alpha t, divided by alpha t0^{d+1}.
    Sub-conformal: (t-|x|)^{d+2-2s_c} |grad_{t,x} u|^2 +
    (t-|x|)^{d-2s_c} u^2 over t in [t0, 2 t0], |x| < t, divided by t0^{d+1}.
    A bounded-in-refinement monitor, not an asserted constant.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    g = traj.snapshots[0].grid
    params = critical_exponent(g.d, traj.snapshots[0].exponent)
    subc = params.s_c < 0.5
    t_hi = 2.0 * t0 if subc else (1.0 + alpha) * t0
    sel = [s for s in traj.snapshots if t0 - 1e-12 <= s.time <= t_hi + 1e-12]
    if len(sel) < 2:
        raise DomainError(f"need at least 2 snapshots in [{t0}, {t_hi}]")
    cone.validate_against(g, t_hi)
    d = g.d
    w_grad = d + 2.0 - 2.0 * params.s_c if subc else d + 1.0
    w_mass = d - 2.0 * params.s_c if subc else d - 1.0

    def slice_value(s: State) -> float:
        t = s.time
        lim = t if subc else alpha * t
        v, u, grad_sq = s.v.values, s.u.values, gradient_square(s.u)
        return (ball_integral(lambda at: at(v) ** 2 + at(grad_sq), g, cone.vertex, lim,
                              lambda r: (t - r) ** w_grad)
                + ball_integral(lambda at: at(u) ** 2, g, cone.vertex, lim,
                                lambda r: (t - r) ** w_mass))

    ts = np.array([s.time for s in sel])
    total = float(np.trapezoid([slice_value(s) for s in sel], ts))
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
    g = traj.snapshots[0].grid
    params = critical_exponent(g.d, traj.snapshots[0].exponent)
    superc = params.s_c > 0.5
    sel = [s for s in traj.snapshots if 0.0 < s.time <= cone.top_time]
    meta = {"vertex": list(cone.vertex), "top_time": cone.top_time, "s_c": params.s_c}
    out = {}
    if not sel:
        empty = np.array([])
        for name in ("mass_half_cone", "grad_half_cone", "pth_mass_cone", "dyadic_grad_avg"):
            out[name] = DiagnosticSeries(name, empty, empty, params.regime, dict(meta))
        return out
    cone.validate_against(g, sel[-1].time)

    x0 = cone.vertex
    times, mass_n, grad_n, pth_n, grad_cone_weighted, grad_cone_plain = [], [], [], [], [], []
    for s in sel:
        t = s.time
        u = s.u.values
        full_grad = s.v.values**2 + gradient_square(s.u)
        times.append(t)
        mass = ball_integral(lambda at: at(u) ** 2, g, x0, 0.5 * t)
        mass_n.append(mass / (t ** (params.p * g.d / (params.p + 4.0)) if superc
                              else t ** (2.0 * params.s_c)))
        pth = ball_integral(lambda at: np.abs(at(u)) ** (0.5 * (s.exponent + 4.0)), g, x0, t)
        pth_n.append(pth if superc else pth / t ** (2.0 * params.s_c - 1.0))
        if superc:
            grad_cone_weighted.append(
                ball_integral(full_grad, g, x0, t, lambda r: (1.0 - r / t) ** 2))
        else:
            grad_n.append(ball_integral(full_grad, g, x0, 0.5 * t)
                          * t ** (2.0 * (1.0 - params.s_c)))
        grad_cone_plain.append(ball_integral(full_grad, g, x0, t))
    times = np.array(times)
    if superc:
        w = np.array(grad_cone_weighted)
        grad_series = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(times))])
    else:
        grad_series = np.array(grad_n)
    out["mass_half_cone"] = DiagnosticSeries("mass_half_cone", times, np.array(mass_n),
                                             params.regime, dict(meta))
    out["grad_half_cone"] = DiagnosticSeries("grad_half_cone", times, grad_series,
                                             params.regime, dict(meta))
    out["pth_mass_cone"] = DiagnosticSeries("pth_mass_cone", times, np.array(pth_n),
                                            params.regime, dict(meta))

    # dyadic [tau, 2 tau] averages of the plain cone gradient integral
    plain = np.array(grad_cone_plain)
    tau_vals, dyadic = [], []
    tau = times[0]
    while 2.0 * tau <= times[-1] + 1e-12:
        in_win = (times >= tau - 1e-12) & (times <= 2.0 * tau + 1e-12)
        if np.count_nonzero(in_win) >= 2:
            val = float(np.trapezoid(plain[in_win], times[in_win]))
            tau_vals.append(tau)
            dyadic.append(val if superc else val / tau ** (2.0 * params.s_c - 1.0))
        tau *= 2.0
    out["dyadic_grad_avg"] = DiagnosticSeries("dyadic_grad_avg", np.array(tau_vals),
                                              np.array(dyadic), params.regime, dict(meta))
    return out
