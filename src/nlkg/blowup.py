"""Blowup detection and analysis: T* estimation and rate fitting, mass
functionals and their convexity structure, truncated-mass audits,
critical-norm tracking, the local lower-bound monitor, and blowup-surface
estimation."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cones import DiagnosticSeries
from .errors import DomainError
from .grid import Field, radial_distance
from .norms import _Pieces, critical_exponent, sobolev_norm
from .solver import Trajectory

__all__ = [
    "MIN_K_FIT",
    "BlowupReport",
    "MassSeries",
    "detect_and_fit",
    "mass_diagnostics",
    "MassDiagnostics",
    "concavity_check",
    "ConcavityReport",
    "truncated_mass",
    "critical_norm_series",
    "lower_bound_check",
    "blowup_surface_estimate",
]


# the fewest tail samples a T* fit takes: two fit the line exactly, with no residual
MIN_K_FIT = 3


@dataclass(frozen=True)
class BlowupReport:
    detected: bool
    t_star: float
    fit_window: np.ndarray
    fit_residual: float
    rate_exponents: dict
    diagnostics: str = ""


def _linear_fit(x: np.ndarray, y: np.ndarray):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    rms = float(np.sqrt(res[0] / len(x))) if res.size else 0.0
    return coef[0], coef[1], rms


def detect_and_fit(traj: Trajectory, k_fit: int = 20, fit_series: tuple = ()) -> BlowupReport:
    """Estimate T* and blowup-rate exponents from a terminated trajectory.

    T* is the x-intercept of the least-squares line through the last k_fit
    samples of ||u(t)||_inf^{-p/2} against t (this transform is exactly
    linear for the spatially constant profile).  Rate exponents come from
    log-log regression of each requested scalar series against (T* - t).
    A non-monotone sup-norm tail means no blowup signature: detected is
    False and the diagnostics say why.  k_fit below MIN_K_FIT is a DomainError.
    """
    if k_fit < MIN_K_FIT:
        raise DomainError(f"k_fit must be at least {MIN_K_FIT}, got {k_fit}")
    times, sup = traj.series("sup_norm")
    p = traj.exponent

    def failed(msg: str) -> BlowupReport:
        return BlowupReport(False, np.nan, np.array([]), np.nan, {}, diagnostics=msg)

    if traj.termination != "blowup_detected":
        return failed(f"trajectory ended with {traj.termination!r}, not blowup_detected")
    if len(times) < max(k_fit, 4):
        return failed(f"only {len(times)} samples, need {max(k_fit, 4)}")
    t_tail, s_tail = times[-k_fit:], sup[-k_fit:]
    if np.any(np.diff(s_tail) <= 0.0):
        return failed("sup-norm tail is not strictly increasing; no blowup signature")

    y = s_tail ** (-0.5 * p)
    slope, intercept, rms = _linear_fit(t_tail, y)
    if slope >= 0.0:
        return failed("sup-norm transform is not decaying; no blowup signature")
    t_star = -intercept / slope
    if t_star <= t_tail[-1]:
        return failed("fitted T* does not exceed the last sample time")
    fit_residual = rms / max(float(np.max(y)), 1e-300)

    exponents = {}
    for name in ("sup_norm",) + tuple(fit_series):
        ts, vals = traj.series(name)
        ts, vals = ts[-k_fit:], np.abs(vals[-k_fit:])
        keep = (vals > 0.0) & (t_star - ts > 0.0)
        if np.count_nonzero(keep) >= 3:
            a, _, _ = _linear_fit(np.log(t_star - ts[keep]), np.log(vals[keep]))
            exponents[name] = float(a)
    return BlowupReport(True, float(t_star), t_tail.copy(), float(fit_residual), exponents)


@dataclass(frozen=True)
class MassSeries:
    """M, M', M'' sampled along a trajectory (closed formulas, not differencing)."""

    times: np.ndarray
    M: np.ndarray
    M_prime: np.ndarray
    M_dprime: np.ndarray
    extra: dict = dc_field(default_factory=dict)


def mass_diagnostics(traj: Trajectory) -> MassSeries:
    """M = int u^2, M' = int 2 u u_t, and
    M'' = -2(p+2) E + int (p+4) u_t^2 + p |grad u|^2 + p m^2 u^2,
    each from its closed formula on every snapshot: a fold of the
    snapshots through :class:`MassDiagnostics`."""
    mass = MassDiagnostics(traj.nl_coeff)
    for s in traj.snapshots:
        mass.add(s)
    return mass.finish()


class MassDiagnostics:
    """:func:`mass_diagnostics` as a reducer: :meth:`add` each state of a run
    (say from :func:`evolve`'s ``on_record``), then :meth:`finish`."""

    def __init__(self, nl_coeff: float = 1.0):
        self.nl, self.p, self.rows = nl_coeff, None, []

    def add(self, s) -> None:
        pc = _Pieces(s, self.nl)
        u, v, p, m = pc.u, pc.v, pc.p, pc.m
        cell = s.grid.cell_volume
        grad_sq = float(np.sum(pc.grad_sq)) * cell
        E = pc.energy
        Mpp = (-2.0 * (p + 2.0) * E
               + (p + 4.0) * float(np.sum(v**2)) * cell
               + p * grad_sq
               + p * m**2 * float(np.sum(u**2)) * cell)
        self.rows.append((s.time, float(np.sum(u**2)) * cell, 2.0 * float(np.sum(u * v)) * cell,
                          Mpp, E, grad_sq))
        self.p = p

    def finish(self) -> MassSeries:
        times, M, Mp, Mpp, Es, grads = (np.array(col) for col in zip(*self.rows))
        return MassSeries(times, M, Mp, Mpp, extra={"energy": Es, "grad_sq": grads, "p": self.p})


@dataclass(frozen=True)
class ConcavityReport:
    t0_index: int | None
    cauchy_schwarz_violations: int
    concavity_violations: int
    checked: int


def concavity_check(series: MassSeries, tol_scale: float = 1e-6) -> ConcavityReport:
    """Past the first time with 2(p+2)E <= (p/2) ||grad u||_2^2, verify
    |M'|^2 <= 4/(p+4) M M'' pointwise and that M^{-p/4} has nonpositive
    discrete second differences (three-point, nonuniform-spacing form).

    Both inequalities approach equality as the solution becomes
    profile-dominated near blowup, so violations are counted relative to
    what a tol_scale-accurate mass series could produce: the
    Cauchy-Schwarz test allows a tol_scale relative excess, and a positive
    second difference counts only if it exceeds the noise amplification
    4 |f| tol_scale / (h1 h2) of the divided-difference stencil.
    """
    p = series.extra["p"]
    E = series.extra["energy"]
    grad_sq = series.extra["grad_sq"]
    mask = 2.0 * (p + 2.0) * E <= 0.5 * p * grad_sq
    if not np.any(mask):
        return ConcavityReport(None, 0, 0, 0)
    i0 = int(np.argmax(mask))

    t = series.times[i0:]
    M, Mp, Mpp = series.M[i0:], series.M_prime[i0:], series.M_dprime[i0:]
    bound = 4.0 / (p + 4.0) * M * Mpp
    cs_bad = int(np.count_nonzero(Mp**2 > bound * (1.0 + tol_scale) + 1e-300))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = M ** (-0.25 * p)
        h1, h2, sec = _second_differences(t, f)
        ok = np.isfinite(f[:-2]) & np.isfinite(f[1:-1]) & np.isfinite(f[2:])
        bad = ok & (sec > 4.0 * np.abs(f[1:-1]) * tol_scale / (h1 * h2))
    return ConcavityReport(i0, cs_bad, int(np.count_nonzero(bad)), int(np.count_nonzero(ok)))


def _second_differences(t: np.ndarray, f: np.ndarray) -> tuple:
    """(h1, h2, f'') at the interior samples of f(t): the three-point,
    nonuniform-spacing stencil."""
    h1, h2 = t[1:-1] - t[:-2], t[2:] - t[1:-1]
    return h1, h2, 2.0 * (h1 * f[2:] - (h1 + h2) * f[1:-1] + h2 * f[:-2]) / (h1 * h2 * (h1 + h2))


def _phi_cutoff(r: np.ndarray) -> tuple:
    """Radial cutoff phi and its first two derivatives; phi is 1, then
    1-2(r-1)^2, then 2(2-r)^2, then 0 on [0,1,3/2,2,inf)."""
    mid1 = (r >= 1.0) & (r < 1.5)
    mid2 = (r >= 1.5) & (r < 2.0)
    phi, dphi, ddphi = np.ones_like(r), np.zeros_like(r), np.zeros_like(r)
    phi[mid1] = 1.0 - 2.0 * (r[mid1] - 1.0) ** 2
    phi[mid2] = 2.0 * (2.0 - r[mid2]) ** 2
    phi[r >= 2.0] = 0.0
    dphi[mid1] = -4.0 * (r[mid1] - 1.0)
    dphi[mid2] = -4.0 * (2.0 - r[mid2])
    ddphi[mid1] = -4.0
    ddphi[mid2] = 4.0
    return phi, dphi, ddphi


def truncated_mass(traj: Trajectory, R: float, center=None) -> MassSeries:
    """Truncated mass M(t) = int phi(x/(R+t)) u^2 dx with the moving cutoff,
    its closed-form M', and the expanded M'' identity evaluated term by term.

    The audit compares discrete second differences of M against the
    identity's right-hand side; the relative gap is reported in
    extra['m2_gap'].  The cutoff's support radius 2(R + t_max) must fit the
    box with a 3h margin.
    """
    if not R > 0.0:
        raise DomainError(f"cutoff radius R must be positive, got {R}")
    g = traj.grid
    center = np.full(g.d, 0.5 * g.box_length) if center is None else np.asarray(center)
    t_max = float(traj.times[-1])
    if 2.0 * (R + t_max) > g.max_fit_radius:
        raise DomainError("cutoff support 2(R + t_max) does not fit the box with margin")
    nl = traj.nl_coeff
    dist = radial_distance(g, center)

    cell = g.cell_volume
    times, M, Mp, rhs_list = [], [], [], []
    for s in traj.snapshots:
        t = s.time
        rad = R + abs(t)
        phi, dphi, ddphi = _phi_cutoff(dist / rad)
        pc = _Pieces(s, nl, center)
        u, v, p, m, pot = pc.u, pc.v, pc.p, pc.m, pc.pot
        grad_tx_sq = v**2 + pc.grad_sq

        times.append(t)
        M.append(float(np.sum(phi * u**2)) * cell)
        # M' = int -x/(R+t)^2 . grad(phi)(y) u^2 + 2 phi u u_t
        Mp.append(float(np.sum(-(dist / rad**2) * dphi * u**2 + 2.0 * phi * u * v)) * cell)
        E = pc.energy
        bulk = (-2.0 * (p + 2.0) * E
                + float(np.sum(4.0 * phi * v**2 + p * grad_tx_sq + p * m**2 * u**2)) * cell
                + float(np.sum(2.0 * (1.0 - phi) * (grad_tx_sq + m**2 * u**2 - nl * pot))) * cell)
        cutoff_u2 = float(np.sum((2.0 * dist / rad**3 * dphi
                                  + dist**2 / rad**4 * ddphi) * u**2)) * cell
        mixed = -float(np.sum(2.0 / rad * dphi * (2.0 * dist / rad * v + pc.u_r) * u)) * cell
        rhs_list.append(bulk + cutoff_u2 + mixed)

    times, M, rhs = np.array(times), np.array(M), np.array(rhs_list)
    gaps = np.abs(_second_differences(times, M)[2] - rhs[1:-1])
    scale = float(np.max(np.abs(rhs))) + 1e-300
    m2_gap = float(np.max(gaps)) / scale if gaps.size else np.nan
    return MassSeries(times, M, np.array(Mp), rhs,
                      extra={"m2_gap": m2_gap, "R": R, "p": traj.exponent})


def critical_norm_series(traj: Trajectory) -> DiagnosticSeries:
    """||u||_{H^{s_c}, homogeneous} + ||u_t||_{H^{s_c-1}, inhomogeneous, m=1}
    along the trajectory."""
    params = critical_exponent(traj.grid.d, traj.exponent)
    vals = [sobolev_norm(s.u, params.s_c, homogeneous=True)
            + sobolev_norm(s.v, params.s_c - 1.0, homogeneous=False, m=1.0)
            for s in traj.snapshots]
    return DiagnosticSeries("critical_norm", traj.times, np.array(vals),
                            regime=params.regime, metadata={"s_c": params.s_c})


def lower_bound_check(traj: Trajectory, t_star: float, x0) -> DiagnosticSeries:
    """(T*-t)^{-2 s_c} int_{|x-x0| < T*-t} u^2 + (T*-t)^2 |grad_{t,x} u|^2 dx.

    Sampled at snapshots where the shrinking ball is resolved (radius of at
    least two cells) and fits the box; the monitored claim is a positive
    floor, never a specific constant.
    """
    g = traj.grid
    params = critical_exponent(g.d, traj.exponent)
    times, vals = [], []
    for i, t in enumerate(traj.times.tolist()):
        rad = t_star - t
        if rad <= 2.0 * g.spacing or rad > g.max_fit_radius:
            continue
        ins = _Pieces(traj.snapshots[i], apex=x0).ball(rad)
        integ = ins.integral(ins.u**2 + rad**2 * (ins.v**2 + ins.grad_sq))
        times.append(t)
        vals.append(rad ** (-2.0 * params.s_c) * integ)
    return DiagnosticSeries("local_lower_bound", np.array(times), np.array(vals),
                            regime=params.regime,
                            metadata={"t_star": t_star, "x0": list(np.atleast_1d(x0))})


def _lipschitz_envelope(sigma: np.ndarray, h: float) -> np.ndarray:
    """Periodic lower envelope min_y sigma(y) + dist_1(x, y) by axis sweeps.

    dist_1 is the grid Manhattan metric, so the result is 1-Lipschitz along
    every grid axis; the projection is idempotent.
    """
    out = sigma.copy()
    for _ in range(out.ndim * max(out.shape)):
        prev = out
        for ax in range(out.ndim):
            out = np.minimum(out, np.roll(out, 1, axis=ax) + h)
            out = np.minimum(out, np.roll(out, -1, axis=ax) + h)
        if np.array_equal(prev, out):
            break
    return out


def blowup_surface_estimate(traj: Trajectory, threshold: float = 1e3) -> Field:
    """Per-point first time |u(t,x)| crosses the threshold, projected onto
    its 1-Lipschitz lower envelope (finite speed of propagation).

    Points that never cross start at +inf and are filled in by the
    envelope; if no point crosses at all, that is an error.
    """
    g = traj.grid
    sigma = np.full(g.shape, np.inf)
    for s in traj.snapshots:
        crossed = (np.abs(s.u.values) > threshold) & ~np.isfinite(sigma)
        sigma[crossed] = s.time
    if not np.any(np.isfinite(sigma)):
        raise DomainError(f"no grid point ever crossed the threshold {threshold}")
    return Field(g, _lipschitz_envelope(sigma, g.spacing))
