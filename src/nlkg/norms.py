"""Lebesgue and fractional Sobolev norms, region-restricted quadrature,
the energy functional, and Gagliardo-Nirenberg ratios."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError
from .grid import (
    Field,
    GridSpec,
    State,
    _forward_array,
    _half_multiplicity,
    _magnitude,
    _symbol_weights,
    bessel_symbol,
    radial_distance,
    spectral_gradient,
    spectral_norm_factor,
)

__all__ = [
    "Region",
    "CriticalParams",
    "critical_exponent",
    "region_mask",
    "region_weight",
    "lebesgue_norm",
    "sobolev_norm",
    "energy",
    "gn_ratio",
    "gn_second_ratio",
]


@dataclass(frozen=True)
class Region:
    """A spatial integration region with a sharp indicator.

    Kinds: 'whole_box'; 'ball' (center, radius); 'annulus' (center,
    r_inner, r_outer); 'half_cone_slice' (center, radius_at_time,
    weight_exponent) which restricts to |x-c| < r/2 and weights the
    integrand by (1 - |x-c|/r)^w.
    """

    kind: str
    center: tuple = ()
    radius: float = 0.0
    r_inner: float = 0.0
    r_outer: float = 0.0
    weight_exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("whole_box", "ball", "annulus", "half_cone_slice"):
            raise DomainError(f"unknown region kind {self.kind!r}")
        if self.kind in ("ball", "half_cone_slice") and self.radius <= 0.0:
            raise DomainError("region radius must be positive")
        if self.kind == "annulus" and not (0.0 <= self.r_inner < self.r_outer):
            raise DomainError("annulus needs 0 <= r_inner < r_outer")

    def validate_against(self, grid: GridSpec) -> None:
        """The region (plus a 3h margin) must fit inside the periodic box."""
        limit = grid.max_fit_radius
        r = {"ball": self.radius, "annulus": self.r_outer, "half_cone_slice": self.radius}.get(
            self.kind, 0.0
        )
        if r > limit:
            raise DomainError(f"region radius {r} does not fit in the box (limit {limit})")


def region_mask(region: Region, grid: GridSpec) -> np.ndarray:
    """Boolean indicator of the region on the grid (sharp, no smoothing)."""
    if region.kind == "whole_box":
        return np.ones(grid.shape, dtype=bool)
    dist = radial_distance(grid, region.center)
    if region.kind == "ball":
        return dist < region.radius
    if region.kind == "annulus":
        return (dist >= region.r_inner) & (dist < region.r_outer)
    return dist < 0.5 * region.radius


def region_weight(region: Region, grid: GridSpec) -> np.ndarray:
    """Pointwise quadrature weight: indicator, times the cone taper if any."""
    mask = region_mask(region, grid).astype(np.float64)
    if region.kind == "half_cone_slice" and region.weight_exponent != 0.0:
        dist = radial_distance(grid, region.center)
        taper = np.clip(1.0 - dist / region.radius, 0.0, None) ** region.weight_exponent
        return mask * taper
    return mask


@dataclass(frozen=True)
class CriticalParams:
    """Scaling-critical regularity data for (d, p)."""

    d: int
    p: float
    s_c: float = dc_field(init=False)
    alpha: float = dc_field(init=False)
    regime: str = dc_field(init=False)

    def __post_init__(self):
        s_c = self.d / 2.0 - 2.0 / self.p
        # Conformal exactly when p (d-1) = 4; 4/(d-1) is exact in floats for d <= 3.
        lhs = self.p * (self.d - 1)
        if lhs == 4.0:
            regime = "conformal"
        elif lhs > 4.0:
            regime = "super_conformal"
        else:
            regime = "sub_conformal"
        object.__setattr__(self, "s_c", s_c)
        object.__setattr__(self, "alpha", 0.5 - s_c)
        object.__setattr__(self, "regime", regime)


def critical_exponent(d: int, p: float) -> CriticalParams:
    """s_c = d/2 - 2/p plus the conformal-regime tag."""
    if p <= 0.0:
        raise DomainError(f"exponent p must be positive, got {p}")
    if d >= 3 and p >= 4.0 / (d - 2):
        raise DomainError(f"p={p} outside admissible range (0, {4.0 / (d - 2)}) for d={d}")
    return CriticalParams(d=d, p=p)


_WHOLE = Region("whole_box")


def lebesgue_norm(f: Field, q: float, region: Region = _WHOLE) -> float:
    """L^q norm over a region: (h^d sum_region w |f|^q)^{1/q}; q=inf is the grid max."""
    if q < 1.0:
        raise DomainError(f"Lebesgue exponent must be >= 1, got {q}")
    w = region_weight(region, f.grid)
    if not np.any(w > 0.0):
        return 0.0
    if np.isinf(q):
        return float(np.max(np.abs(f.values)[w > 0.0]))
    total = float(np.sum(w * np.abs(f.values) ** q)) * f.grid.cell_volume
    return total ** (1.0 / q)


def sobolev_norm(f: Field, s: float, homogeneous: bool = True, m: float = 1.0) -> float:
    """Fractional Sobolev norm by Fourier multiplier.

    Homogeneous uses |xi|^s (the zero mode is dropped for s <= 0);
    inhomogeneous uses (m^2 + |xi|^2)^{s/2} with m = 1 by default.
    """
    g = f.grid
    symbol = (lambda mag: mag**s) if homogeneous else (lambda mag: bessel_symbol(mag, m) ** s)
    weights = _symbol_weights(_magnitude(g, half=True), symbol, zero_mode=0.0)
    modes = _half_multiplicity(g) * (weights * np.abs(_forward_array(f.values))) ** 2
    return float(np.sqrt(np.sum(modes) * spectral_norm_factor(g)))


def gradient_square(u: Field) -> np.ndarray:
    """|nabla u|^2 pointwise, with the gradient computed spectrally."""
    acc = np.zeros(u.grid.shape)
    for g in spectral_gradient(u):
        acc += g.values**2
    return acc


def energy(state: State, nl_coeff: float = 1.0) -> float:
    """Conserved energy: int 1/2 |grad_{t,x} u|^2 + m^2/2 u^2 - 1/(p+2)|u|^{p+2}.

    `nl_coeff` scales the potential term; 0 gives the linear Klein-Gordon
    energy, which is what trajectories with the nonlinearity disabled
    conserve.
    """
    return _energy_with(state, gradient_square(state.u), nl_coeff)


def _energy_with(state: State, grad_sq: np.ndarray, nl_coeff: float) -> float:
    """:func:`energy` with |grad u|^2 supplied by a caller that has it already."""
    u, v = state.u.values, state.v.values
    p, m = state.exponent, state.mass_param
    dens = 0.5 * v**2 + 0.5 * grad_sq + 0.5 * m**2 * u**2
    if nl_coeff != 0.0:
        dens = dens - (nl_coeff / (p + 2.0)) * np.abs(u) ** (p + 2.0)
    return float(np.sum(dens)) * state.grid.cell_volume


def gn_ratio(f: Field, params: CriticalParams) -> float:
    """||f||_{p+2}^{p+2} / (||f||_{pd/2}^p ||grad f||_2^2).

    Every returned value is a lower bound on the optimal constant of the
    inequality relating these three quantities.
    """
    p, d = params.p, params.d
    num = lebesgue_norm(f, p + 2.0) ** (p + 2.0)
    den_q = lebesgue_norm(f, p * d / 2.0) ** p
    den_g = sobolev_norm(f, 1.0) ** 2
    if den_q == 0.0 or den_g == 0.0:
        raise DomainError("Gagliardo-Nirenberg ratio undefined for a field with zero denominator")
    return num / (den_q * den_g)


def gn_second_ratio(f: Field, params: CriticalParams) -> float:
    """||f||_{pd/2} / (||f||_2^{1-s_c} ||grad f||_2^{s_c})."""
    num = lebesgue_norm(f, params.p * params.d / 2.0)
    den = lebesgue_norm(f, 2.0) ** (1.0 - params.s_c) * sobolev_norm(f, 1.0) ** params.s_c
    if den == 0.0:
        raise DomainError("ratio undefined for the zero field")
    return num / den
