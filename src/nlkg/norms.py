"""Lebesgue and fractional Sobolev norms, the energy functional, the one
per-snapshot field view every diagnostic reads with its one ball quadrature
(every ball or cone integral: a sum over the open ball |x - c| < R on the
cached minimal-image distance), and Gagliardo-Nirenberg ratios."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import DomainError
from .grid import (
    Field,
    GridSpec,
    State,
    _center_key,
    _check_exponent,
    _forward_array,
    _half_multiplicity,
    _lattice_offsets,
    _radial_weights,
    displacement,
    radial_distance,
    spectral_gradient,
)

__all__ = [
    "CriticalParams",
    "critical_exponent",
    "lebesgue_norm",
    "sobolev_norm",
    "energy",
    "gn_ratio",
    "gn_second_ratio",
]


def _inside(grid: GridSpec, center, radius: float) -> np.ndarray:
    """Indicator of the open ball |x - center| < radius.

    About a lattice centre a point is inside when its integer offset k has
    k.k h^2 < R^2 in exact arithmetic, so a lattice point at exactly R is
    out whatever the rounding of the float table.
    """
    ksq = _lattice_offsets(grid, _center_key(grid, center))
    if ksq is None or not 0.0 < radius < np.inf:
        return radial_distance(grid, center) < radius
    # the largest k.k with k.k h^2 < R^2, for R = a/b and h = c/e exactly
    a, b = float(radius).as_integer_ratio()
    c, e = grid.spacing.as_integer_ratio()
    return ksq <= ((a * e) ** 2 - 1) // (b * c) ** 2


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
    _check_exponent(d, p)
    return CriticalParams(d=d, p=p)


def lebesgue_norm(f: Field, q: float) -> float:
    """L^q norm over the box: (h^d sum |f|^q)^{1/q}; q=inf is the grid max."""
    if q < 1.0:
        raise DomainError(f"Lebesgue exponent must be >= 1, got {q}")
    if np.isinf(q):
        return _sup(f.values)
    return (_power_sum(f.values, q) * f.grid.cell_volume) ** (1.0 / q)


def _sup(values: np.ndarray) -> float:
    """max|v| without a temporary of values' size; NaN stays NaN, and + 0.0 turns
    numpy's -0.0 for all-zero values into the 0.0 of np.max(np.abs(values))."""
    return float(np.maximum(values.max(), -values.min()) + 0.0)


def _even_integer(q: float) -> bool:
    """q = 2, 4, ...: then |u|^q is a product of copies of u * u."""
    return q > 0 and float(q).is_integer() and int(q) % 2 == 0


def _power_sum(values: np.ndarray, q: float, out: np.ndarray | None = None) -> float:
    """sum |v|^q; for an even integer q = 2k, (v * v)^k by repeated squaring
    (q = 2: bit for bit np.abs(v) ** 2), as the solver's even-p source.
    Given `out`, an array of values' shape, the powers are formed in it and
    in `values` (both may be overwritten) and no array is allocated; the sum
    is the same bit for bit."""
    if not _even_integer(q):
        out = np.abs(values, out=out)
        return float(np.sum(np.power(out, q, out=out)))
    bits = bin(int(q) // 2)[3:]  # the binary digits of k after the leading 1
    square = np.multiply(values, values, out=None if out is None else values)
    out = np.multiply(square, square, out=out) if bits else square
    for i, bit in enumerate(bits):
        if i:
            out *= out
        if bit == "1":
            out *= square
    return float(np.sum(out))


def sobolev_norm(f: Field, s: float, homogeneous: bool = True, m: float = 1.0) -> float:
    """Fractional Sobolev norm by Fourier multiplier.

    Homogeneous uses |xi|^s (the zero mode is dropped for s < 0);
    inhomogeneous uses (m^2 + |xi|^2)^{s/2} with m = 1 by default.
    It keeps each axis's Nyquist wavenumber, which `spectral_gradient` (and
    so `energy`) drops: for (-1)^j = cos(pi x / h) along one axis on n = 32,
    L = 8, sobolev_norm(f, 1) is 100.53 and the gradient is zero.
    """
    return _spectral_sobolev_norm(np.abs(_forward_array(f.values)), f.grid, s, homogeneous, m)


def _spectral_sobolev_norm(modulus, g: GridSpec, s: float, homogeneous=True, m=1.0) -> float:
    """`sobolev_norm` of the field whose half-spectrum has the moduli `modulus`."""
    # discrete Plancherel: sum |f|^2 h^d = sum over the full spectrum of |F|^2 h^d / n^d,
    # each half-spectrum coefficient standing for _half_multiplicity full modes (in place)
    modes = _radial_weights(g, s, None if homogeneous else m)
    modes *= modulus
    modes *= modes
    modes *= _half_multiplicity(g)
    return float(np.sqrt(np.sum(modes) * (g.cell_volume / g.num_points)))


def energy(state: State, nl_coeff: float = 1.0) -> float:
    """Conserved energy: int 1/2 |grad_{t,x} u|^2 + m^2/2 u^2 - 1/(p+2)|u|^{p+2}.

    `nl_coeff` scales the potential term; 0 gives the linear Klein-Gordon
    energy, which is what trajectories with the nonlinearity disabled
    conserve.
    """
    return _Pieces(state, nl_coeff).energy


def _energy_density(u, v, grad_sq, m: float, p: float, nl_coeff: float, pot=None):
    """Pointwise 1/2 u_t^2 + 1/2 |grad u|^2 + m^2/2 u^2 - nl/(p+2) |u|^{p+2};
    `pot` is |u|^{p+2} if the caller has it, and nl = 0 skips that term."""
    dens = 0.5 * v**2 + 0.5 * grad_sq + 0.5 * m**2 * u**2
    if nl_coeff != 0.0:
        dens = dens - nl_coeff / (p + 2.0) * (np.abs(u) ** (p + 2.0) if pot is None else pot)
    return dens


class _Pieces:
    """One snapshot's pointwise fields, built once for every diagnostic that
    reads them (the energy, the mass and lower-bound audits, the tensors, the
    cone slices): outside grid, the one place that takes a gradient (on first
    use, or by :meth:`ball`).  x and S = x . grad u exist only about an `apex`."""

    def __init__(self, state: State, nl_coeff: float = 1.0, apex=None):
        self.grid = state.grid
        self.apex = None if apex is None else _center_key(self.grid, apex)
        if apex is not None:
            self.x = displacement(self.grid, self.apex)
        self.t, self.u, self.v = state.time, state.u.values, state.v.values
        self.m, self.p, self.d = state.mass_param, state.exponent, state.grid.d
        self.nl, self.field = nl_coeff, state.u
        self.at = ...  # the grid points these arrays hold: all, or a ball view's mask

    @cached_property
    def grad(self):
        return [g.values for g in spectral_gradient(self.field)]

    @cached_property
    def grad_sq(self):  # |grad u|^2, accumulated in place
        out = self.grad[0] ** 2
        for g in self.grad[1:]:
            out += g**2
        return out

    @cached_property
    def S(self):
        """x . grad u about the apex."""
        return sum(xi * gi for xi, gi in zip(self.x, self.grad))

    @cached_property
    def r_sq(self):
        return sum(xi**2 for xi in self.x)

    @cached_property
    def dist(self):
        return radial_distance(self.grid, self.apex)

    @cached_property
    def u_r(self):
        """(x/|x|) . grad u about the apex, 0 at the apex point."""
        r = self.dist
        return np.where(r == 0.0, 0.0, self.S / np.where(r == 0.0, 1.0, r))

    @property
    def angular(self) -> list:
        """grad u less its radial part; u_r^2 + |angular|^2 = |grad u|^2."""
        r = self.dist
        safe_r = np.where(r == 0.0, 1.0, r)
        return [g - np.where(r == 0.0, 0.0, dx / safe_r) * self.u_r
                for dx, g in zip(self.x, self.grad)]

    def ball(self, radius: float) -> _Pieces:
        """These fields on the open ball |x - apex| < radius alone, with `dist`
        the distances there: a ball integral is :meth:`integral` of a pointwise
        expression in this view, with the values the whole fields have there.
        A ball of a view must lie inside it; with no gradient yet, it takes one there alone."""
        inside = _inside(self.grid, self.apex, radius)
        keep = inside[self.at]
        if np.count_nonzero(keep) != np.count_nonzero(inside):
            raise DomainError(f"a ball of radius {radius} does not lie inside this ball view")
        view = copy.copy(self)
        view.dist = self.dist
        for name, a in list(vars(view).items()):
            if isinstance(a, np.ndarray) and name != "at":
                setattr(view, name, a[keep])
            elif isinstance(a, list):
                setattr(view, name, [np.broadcast_to(b, keep.shape)[keep] for b in a])
        if "grad" not in vars(view):
            view.grad = spectral_gradient(self.field, inside)
        view.at = inside
        return view

    def integral(self, values) -> float:
        """h^d sum values: the quadrature over this view's points."""
        return float(np.sum(values)) * self.grid.cell_volume

    @cached_property
    def pot(self):
        return np.abs(self.u) ** (self.p + 2.0)

    @property
    def energy_density(self):
        return _energy_density(self.u, self.v, self.grad_sq, self.m, self.p, self.nl,
                               self.pot if self.nl != 0.0 else None)

    @property
    def energy(self) -> float:
        return self.integral(self.energy_density)

    @property
    def lagrangian_density(self):
        return (0.5 * self.grad_sq - 0.5 * self.v**2 + 0.5 * self.m**2 * self.u**2
                - self.nl / (self.p + 2.0) * self.pot)

    def dilation_multiplier(self, zeroth: float):
        """x . grad u + t u_t + zeroth * u."""
        return self.S + self.t * self.v + zeroth * self.u

    @property
    def dilation_source(self):
        c = (self.p * (self.d - 1) - 4.0) / (2.0 * (self.p + 2.0))
        return c * self.nl * self.pot + self.m**2 * self.u**2

    @property
    def charge_source(self):
        return self.v**2 - self.grad_sq - self.m**2 * self.u**2 + self.nl * self.pot


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
