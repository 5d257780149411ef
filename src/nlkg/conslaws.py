"""The six conservation-law tensors (energy, dilation, modified dilation,
charge, conformal energy, combined dilation+charge) and their audits:
discrete divergence residuals and integrated slab identities.

Each tensor is a triple (density z0, flux vector z, source) satisfying
d/dt z0 + div z = source pointwise for solutions of the equation.  The
spatial variable in the time-weighted tensors is measured from an
explicit apex point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grid import Field, State, spectral_divergence
from .norms import _Pieces, _sup, critical_exponent
from .solver import Trajectory

__all__ = [
    "TENSOR_TAGS",
    "TensorKind",
    "TensorSample",
    "tensor_kind",
    "eval_tensor",
    "tensor_density",
    "combined_weighted_source",
    "divergence_residual",
    "residual_norms",
    "refinement_orders",
    "charge_slab_identity",
    "SlabIdentityResult",
]

TENSOR_TAGS = ("energy", "dilation", "mod_dilation", "charge", "conf_energy", "combined")
_TIME_WEIGHTED = ("dilation", "mod_dilation", "conf_energy", "combined")


@dataclass(frozen=True)
class TensorKind:
    tag: str
    alpha: float | None = None

    def __post_init__(self):
        if self.tag not in TENSOR_TAGS:
            raise DomainError(f"unknown tensor tag {self.tag!r}")
        if self.tag == "combined":
            if self.alpha is None or self.alpha <= 0.0:
                raise DomainError("combined tensor requires alpha = 1/2 - s_c > 0 (sub-conformal)")


def tensor_kind(tag: str, state: State | None = None) -> TensorKind:
    """Build a TensorKind, deriving alpha from the state for 'combined'."""
    if tag == "combined":
        if state is None:
            raise DomainError("combined tensor needs a state to derive alpha")
        return TensorKind(tag, alpha=critical_exponent(state.grid.d, state.exponent).alpha)
    return TensorKind(tag)


@dataclass(frozen=True)
class TensorSample:
    """A tensor evaluated on one State: density z0, flux vector, and source."""

    kind: TensorKind
    density: Field
    flux: tuple
    source: Field


def _pieces(state: State, kind: TensorKind, apex, nl_coeff: float) -> _Pieces:
    if kind.tag in _TIME_WEIGHTED and state.time <= 0.0:
        raise DomainError(f"{kind.tag} tensor requires evaluation time > 0")
    return _Pieces(state, nl_coeff, apex)


def _density(pc: _Pieces, kind: TensorKind):
    """The density z0 of one tensor; the single form of each of the six.

    The modified-dilation and combined densities are the closed
    "completed squares" forms; :func:`_check_second_form` holds them
    against their definitions.
    """
    tag = kind.tag
    if tag == "energy":
        return pc.energy_density
    if tag == "charge":
        return pc.u * pc.v
    if tag == "dilation":
        return pc.t * pc.lagrangian_density + pc.dilation_multiplier(0.5 * (pc.d - 1)) * pc.v
    if tag == "mod_dilation":
        W = pc.dilation_multiplier(0.5 * (pc.d - 1))
        return (W**2 / (2.0 * pc.t)
                + 0.5 * pc.t * pc.grad_sq - pc.S**2 / (2.0 * pc.t)
                - pc.nl * pc.t / (pc.p + 2.0) * pc.pot
                + (pc.d**2 - 1.0) / (8.0 * pc.t) * pc.u**2
                + 0.5 * pc.t * pc.m**2 * pc.u**2)
    if tag == "conf_energy":
        t = pc.t
        return ((t**2 + pc.r_sq) * pc.energy_density + 2.0 * t * pc.v * pc.S
                + (pc.d - 1) * t * pc.u * pc.v - 0.5 * (pc.d - 1) * pc.u**2)
    t, p = pc.t, pc.p
    W2 = pc.dilation_multiplier(2.0 / p)
    return (W2**2 / (2.0 * t)
            + 0.5 * t * pc.grad_sq - pc.S**2 / (2.0 * t)
            - pc.nl * t / (p + 2.0) * pc.pot
            + (0.5 * pc.m**2 * t + (p + 2.0) / (p**2 * t)) * pc.u**2)


def _check_second_form(pc: _Pieces, kind: TensorKind, dens) -> None:
    """Self-check of the closed forms against their definitions: the
    dilation density plus the gauge terms (the pointwise divergence of
    (x/t) u^2 for mod_dilation; alpha times charge as well for combined)."""
    if kind.tag == "mod_dilation":
        c = (pc.d - 1) / 4.0
        alt = (_density(pc, TensorKind("dilation"))
               + (c / pc.t) * (pc.d * pc.u**2 + 2.0 * pc.u * pc.S))
    elif kind.tag == "combined":
        t, p, alpha = pc.t, pc.p, kind.alpha
        alt = _density(pc, TensorKind("dilation")) + alpha * pc.u * pc.v \
            + (1.0 / (p * t)) * (pc.d * pc.u**2 + 2.0 * pc.u * pc.S) \
            + (2.0 * alpha / p) * pc.u**2 / t
    else:
        return
    scale = np.max(np.abs(dens)) + np.max(np.abs(alt)) + 1e-300
    if np.max(np.abs(dens - alt)) > 1e-10 * scale:
        raise RuntimeError(f"{kind.tag} density forms disagree beyond tolerance")


def _flux_and_source(pc: _Pieces, kind: TensorKind):
    tag = kind.tag
    if tag == "energy":
        return [-pc.v * g for g in pc.grad], np.zeros(pc.grid.shape)
    if tag == "charge":
        return [-pc.u * gi for gi in pc.grad], pc.charge_source
    if tag == "conf_energy":
        t, q = pc.t, pc.r_sq
        bracket = (t**2 + q) * pc.v + 2.0 * t * pc.S + (pc.d - 1) * t * pc.u
        anti_lag = (0.5 * pc.v**2 - 0.5 * pc.grad_sq - 0.5 * pc.m**2 * pc.u**2
                    + pc.nl / (pc.p + 2.0) * pc.pot)
        flux = [-bracket * gi - 2.0 * xi * t * anti_lag for gi, xi in zip(pc.grad, pc.x)]
        src = (t * pc.nl * (pc.p * (pc.d - 1) - 4.0) / (pc.p + 2.0) * pc.pot
               + 2.0 * t * pc.m**2 * pc.u**2)
        return flux, src
    # the dilation family: modified dilation and combined add gauge terms
    W = pc.dilation_multiplier(0.5 * (pc.d - 1))
    flux = [xi * pc.lagrangian_density - W * gi for xi, gi in zip(pc.x, pc.grad)]
    src = pc.dilation_source
    if tag == "dilation":
        return flux, src
    dt_xu2_over_t = 2.0 * pc.u * pc.v / pc.t - pc.u**2 / pc.t**2
    if tag == "mod_dilation":
        c = (pc.d - 1) / 4.0
        return [fi - c * xi * dt_xu2_over_t for fi, xi in zip(flux, pc.x)], src
    alpha, p = kind.alpha, pc.p
    flux = [fi - alpha * pc.u * gi - (xi / p) * dt_xu2_over_t
            for fi, xi, gi in zip(flux, pc.x, pc.grad)]
    return flux, src + alpha * pc.charge_source + (2.0 * alpha / p) * dt_xu2_over_t


def eval_tensor(state: State, kind: TensorKind, apex, nl_coeff: float = 1.0) -> TensorSample:
    """Evaluate density, flux, and source of one tensor on a State.

    The modified-dilation and combined densities are computed through two
    independent algebraic forms and must agree pointwise to 1e-10
    relative.
    """
    pc = _pieces(state, kind, apex, nl_coeff)
    dens = _density(pc, kind)
    _check_second_form(pc, kind, dens)
    flux, src = _flux_and_source(pc, kind)
    grid = state.grid
    return TensorSample(
        kind=kind,
        density=Field(grid, np.ascontiguousarray(np.broadcast_to(dens, grid.shape))),
        flux=tuple(Field(grid, np.ascontiguousarray(np.broadcast_to(f, grid.shape))) for f in flux),
        source=Field(grid, np.ascontiguousarray(np.broadcast_to(src, grid.shape))),
    )


def tensor_density(state: State, kind: TensorKind, apex, nl_coeff: float = 1.0) -> Field:
    """Density z0 only (skips the flux/source work of :func:`eval_tensor`)."""
    dens = _density(_pieces(state, kind, apex, nl_coeff), kind)
    return Field(state.grid, np.ascontiguousarray(np.broadcast_to(dens, state.grid.shape)))


def combined_weighted_source(state: State, apex, nl_coeff: float = 1.0) -> Field:
    """Cone-weighted production rate of the combined functional.

    Returns 2 alpha |x.grad u + t u_t + (2/p)u|^2 (t^2-|x|^2)^{alpha-1}
    + m^2 u^2 (t^2-|x|^2)^{alpha} inside |x - apex| < t and 0 outside;
    pointwise nonnegative in the sub-conformal regime.
    """
    kind = tensor_kind("combined", state)  # the sub-conformal regime only
    pc = _pieces(state, kind, apex, nl_coeff)  # t > 0 only
    alpha, gap = kind.alpha, state.time**2 - pc.r_sq
    inside = gap > 0.0
    W2 = pc.dilation_multiplier(2.0 / pc.p)
    vals = np.zeros(state.grid.shape)
    vals[inside] = (2.0 * alpha * W2[inside] ** 2 * gap[inside] ** (alpha - 1.0)
                    + pc.m**2 * pc.u[inside] ** 2 * gap[inside] ** alpha)
    return Field(state.grid, vals)


def divergence_residual(window, kind: TensorKind, apex, nl_coeff: float = 1.0) -> Field:
    """Residual of d/dt z0 + div z = source on three equally spaced snapshots.

    The time derivative of the density is a centered difference across the
    window (kept independent of the tensor algebra being audited); the
    flux divergence is spectral at the middle time.
    """
    s0, s1, s2 = window
    dt1, dt2 = s1.time - s0.time, s2.time - s1.time
    if dt1 <= 0 or abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise DomainError("window snapshots must be equally spaced in time")
    lo = eval_tensor(s0, kind, apex, nl_coeff)
    mid = eval_tensor(s1, kind, apex, nl_coeff)
    hi = eval_tensor(s2, kind, apex, nl_coeff)
    ddt = (hi.density.values - lo.density.values) / (s2.time - s0.time)
    div = spectral_divergence(list(mid.flux)).values
    return Field(s1.grid, ddt + div - mid.source.values)


def residual_norms(residual: Field) -> tuple[float, float]:
    """(L2, Linf) norms of a residual field over the box."""
    l2 = float(np.sqrt(np.sum(residual.values**2) * residual.grid.cell_volume))
    return l2, _sup(residual.values)


def refinement_orders(norm_by_level) -> list[float]:
    """Observed orders log2(e_k / e_{k+1}) for a sequence of halved-(h,dt) errors."""
    e = np.asarray(norm_by_level, dtype=np.float64)
    if np.any(e <= 0.0):
        raise DomainError("refinement orders need strictly positive error norms")
    return list(np.log2(e[:-1] / e[1:]))


@dataclass(frozen=True)
class SlabIdentityResult:
    lhs: float
    rhs: float
    gap: float
    avg_kinetic: float
    avg_potential: float


def charge_slab_identity(traj: Trajectory, t0: float, t1: float) -> SlabIdentityResult:
    """Integrated charge identity over the slab [t0, t1] x box.

    lhs: trapezoid-in-time of int (u_t^2 - |grad u|^2 - m^2 u^2 + |u|^{p+2}) dx;
    rhs: int u u_t dx evaluated at t1 minus at t0.  Also reports the two
    virial time-averages (kinetic, and gradient + mass - potential).
    """
    sel = traj.slab(t0, t1)
    ts = traj.times[sel]
    nl = traj.nl_coeff

    cell = traj.grid.cell_volume
    integrand, kinetic, q0 = [], [], []
    for i in sel:
        s = traj.snapshots[i]
        pc = _Pieces(s, nl)
        integrand.append(float(np.sum(pc.charge_source)) * cell)
        kinetic.append(float(np.sum(pc.v**2)) * cell)
        if i in (sel[0], sel[-1]):  # int u u_t dx at the two ends
            q0.append(float(np.sum(s.u.values * s.v.values)) * cell)
    lhs = float(np.trapezoid(integrand, ts))
    kin_avg = float(np.trapezoid(kinetic, ts)) / (ts[-1] - ts[0])  # the span integrated
    rhs = q0[-1] - q0[0]
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    # virial reading: time-average of u_t^2 vs |grad u|^2 + m^2 u^2 - |u|^{p+2}
    pot_avg = kin_avg - lhs / (ts[-1] - ts[0])
    return SlabIdentityResult(lhs=lhs, rhs=rhs, gap=gap,
                              avg_kinetic=kin_avg, avg_potential=pot_avg)
