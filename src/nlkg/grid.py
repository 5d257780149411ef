"""Periodic-box discretization, FFT transforms, Fourier multipliers, and
dyadic (Littlewood-Paley style) frequency projections.

All fields live on a d-dimensional periodic box [0, L)^d sampled on n
points per axis (n a power of two).  Real fields are represented in
physical space as float64 arrays and in spectral space as the full
complex FFT coefficient array, which is Hermitian-symmetric for real
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CorruptionError, DomainError

__all__ = [
    "GridSpec",
    "Field",
    "SpectralField",
    "State",
    "forward_transform",
    "inverse_transform",
    "bessel_symbol",
    "apply_multiplier",
    "lp_bump",
    "lp_project",
    "dyadic_range",
    "fractional_derivative",
    "bessel_derivative",
    "spectral_gradient",
    "spectral_divergence",
    "axis_coordinates",
    "displacement",
    "radial_distance",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: d dimensions, n points per axis, side length L.

    The spacing h = L/n is derived, never stored.  Wavenumbers per axis are
    2*pi/L * {-n/2, ..., n/2 - 1}.
    """

    d: int
    n: int
    box_length: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise DomainError(f"spatial dimension must be 1, 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise DomainError(f"n must be a power of two >= 8, got {self.n}")
        if not (self.box_length > 0.0 and np.isfinite(self.box_length)):
            raise DomainError(f"box_length must be positive and finite, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def num_points(self) -> int:
        return self.n**self.d

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    @property
    def volume(self) -> float:
        return self.box_length**self.d

    @property
    def min_wavenumber(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def max_wavenumber(self) -> float:
        """Largest resolved wavenumber per axis (Nyquist), pi*n/L."""
        return np.pi * self.n / self.box_length

    @property
    def max_fit_radius(self) -> float:
        """Largest audited radius, L/2 - 3h: a ball about any point stays
        clear of its own periodic images by a margin of three cells."""
        return 0.5 * self.box_length - 3.0 * self.spacing


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise CorruptionError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class Field:
    """A real scalar field sampled on a GridSpec, row-major."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise DomainError(f"field shape {v.shape} does not match grid shape {self.grid.shape}")
        _check_finite(v, "Field")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Complex FFT coefficients of a real field (full fftfreq layout)."""

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        if c.shape != self.grid.shape:
            raise DomainError(
                f"coefficient shape {c.shape} does not match grid shape {self.grid.shape}"
            )
        _check_finite(c.view(np.float64), "SpectralField")
        object.__setattr__(self, "coefficients", c)


@dataclass(frozen=True)
class State:
    """The pair (u, u_t) at one time instant, plus the physics parameters."""

    u: Field
    v: Field
    time: float
    mass_param: float
    exponent: float

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise DomainError("u and v must share one grid")
        if not (0.0 <= self.mass_param <= 1.0):
            raise DomainError(f"mass parameter must lie in [0, 1], got {self.mass_param}")
        if self.exponent <= 0.0:
            raise DomainError(f"nonlinearity exponent must be positive, got {self.exponent}")
        d = self.u.grid.d
        if d >= 3 and self.exponent >= 4.0 / (d - 2):
            raise DomainError(
                f"exponent p={self.exponent} outside admissible range (0, {4.0 / (d - 2)}) for d={d}"
            )

    @property
    def grid(self) -> GridSpec:
        return self.u.grid


@lru_cache(maxsize=32)
def _axis_wavenumbers(grid: GridSpec) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)


@lru_cache(maxsize=32)
def wavenumber_mesh(grid: GridSpec) -> tuple:
    """Per-axis wavenumber arrays broadcastable to the grid shape."""
    k = _axis_wavenumbers(grid)
    return tuple(
        k.reshape((1,) * ax + (grid.n,) + (1,) * (grid.d - ax - 1)) for ax in range(grid.d)
    )


@lru_cache(maxsize=32)
def wavenumber_magnitude(grid: GridSpec) -> np.ndarray:
    """|xi| on the full coefficient grid."""
    mesh = wavenumber_mesh(grid)
    mag_sq = np.zeros(grid.shape)
    for k in mesh:
        mag_sq = mag_sq + k**2
    return np.sqrt(mag_sq)


def _forward_array(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a real array, without validation.  With
    :func:`_inverse_array`, the one transform pair every kernel goes through."""
    return np.fft.fftn(values)


def _inverse_array(coefficients: np.ndarray) -> np.ndarray:
    """Inverse DFT to a C-contiguous real array, without validation; the
    imaginary residue of a Hermitian input is discarded."""
    return np.ascontiguousarray(np.fft.ifftn(coefficients).real)


def forward_transform(f: Field) -> SpectralField:
    """Discrete Fourier transform of a real field (unnormalized forward)."""
    _check_finite(f.values, "forward_transform input")
    return SpectralField(f.grid, _forward_array(f.values))


def inverse_transform(F: SpectralField) -> Field:
    """Inverse DFT; the imaginary residue of a Hermitian input is discarded."""
    return Field(F.grid, _inverse_array(F.coefficients))


def spectral_norm_factor(grid: GridSpec) -> float:
    """sum |f|^2 h^d  ==  sum |F|^2 * this factor (discrete Plancherel)."""
    return grid.cell_volume / grid.num_points


def bessel_symbol(xi_mag, m: float):
    """sqrt(m^2 + |xi|^2), the dispersion weight of the linear flow."""
    return np.hypot(np.asarray(xi_mag, dtype=np.float64), m)


def apply_multiplier(F: SpectralField, symbol, zero_mode: float | None = None) -> SpectralField:
    """Multiply coefficients by a radial real symbol evaluated at |xi|.

    `symbol` maps an array of |xi| to real weights.  If it is not finite at
    xi = 0 the caller must pass `zero_mode` with the value to use there; a
    non-finite value at any nonzero grid mode is an error.
    """
    mag = wavenumber_magnitude(F.grid)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = np.asarray(symbol(mag), dtype=np.float64)
    zero_idx = (0,) * F.grid.d
    if not np.isfinite(weights[zero_idx]):
        if zero_mode is None:
            raise DomainError("symbol is singular at xi=0 and no zero_mode value was supplied")
        weights = weights.copy()
        weights[zero_idx] = zero_mode
    if not np.all(np.isfinite(weights)):
        raise DomainError("symbol is not finite at a nonzero grid wavenumber")
    return SpectralField(F.grid, F.coefficients * weights)


def lp_bump(r):
    """Radial cutoff profile: 1 on r <= 1, 0 on r >= 11/10, quintic blend between.

    The blend is the unique quintic matching value and first two
    derivatives at both ends, so the profile is C^2 and reproducible
    bit-exactly.
    """
    r = np.asarray(r, dtype=np.float64)
    s = np.clip((r - 1.0) / 0.1, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def _lp_multiplier(grid: GridSpec, n_dyadic: float, mode: str) -> np.ndarray:
    mag = wavenumber_magnitude(grid)
    if n_dyadic <= 0:
        raise DomainError("dyadic frequency must be positive")
    if mode == "leq":
        return lp_bump(mag / n_dyadic)
    if mode == "gt":
        return 1.0 - lp_bump(mag / n_dyadic)
    if mode == "band":
        return lp_bump(mag / n_dyadic) - lp_bump(2.0 * mag / n_dyadic)
    raise DomainError(f"unknown projection mode {mode!r}")


def lp_project(f: Field, n_dyadic: float, mode: str = "band") -> Field:
    """Dyadic frequency projection: mode is 'leq', 'gt', or 'band'.

    P_{<=N} + P_{>N} is the identity exactly, and the band projections
    telescope: summing bands above N up to the grid's top dyadic
    reproduces P_{>N} on the finite grid.
    """
    F = forward_transform(f)
    weights = _lp_multiplier(f.grid, n_dyadic, mode)
    return inverse_transform(SpectralField(f.grid, F.coefficients * weights))


def dyadic_range(grid: GridSpec, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Dyadic frequencies 2^j clipped to the grid-resolvable window [2pi/L, pi n/L]."""
    lo = grid.min_wavenumber if lo is None else max(lo, grid.min_wavenumber)
    hi = grid.max_wavenumber if hi is None else min(hi, grid.max_wavenumber)
    if hi < lo:
        return np.array([])
    j_lo = int(np.ceil(np.log2(lo) - 1e-12))
    j_hi = int(np.floor(np.log2(hi) + 1e-12))
    return 2.0 ** np.arange(j_lo, j_hi + 1, dtype=np.float64)


def fractional_derivative(f: Field, s: float) -> Field:
    """|nabla|^s via the multiplier |xi|^s; the zero mode is annihilated for s <= 0."""
    if s == 0.0:
        return f
    F = forward_transform(f)
    return inverse_transform(apply_multiplier(F, lambda mag: mag**s, zero_mode=0.0))


def bessel_derivative(f: Field, s: float, m: float = 1.0) -> Field:
    """<nabla>_m^s via the multiplier (m^2+|xi|^2)^{s/2}.

    For m = 0 and s < 0 the zero mode is annihilated (homogeneous
    convention: negative-order operators ignore the mean).
    """
    if s == 0.0:
        return f
    F = forward_transform(f)
    return inverse_transform(
        apply_multiplier(F, lambda mag: bessel_symbol(mag, m) ** s, zero_mode=0.0)
    )


def spectral_gradient(f: Field) -> list[Field]:
    """All first partial derivatives of f, computed spectrally."""
    F = forward_transform(f)
    mesh = wavenumber_mesh(f.grid)
    out = []
    for k in mesh:
        out.append(inverse_transform(SpectralField(f.grid, F.coefficients * (1j * k))))
    return out


def spectral_divergence(components: list[Field]) -> Field:
    """Divergence of a vector field, computed spectrally."""
    grid = components[0].grid
    if len(components) != grid.d:
        raise DomainError(f"expected {grid.d} components, got {len(components)}")
    mesh = wavenumber_mesh(grid)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for comp, k in zip(components, mesh):
        acc += _forward_array(comp.values) * (1j * k)
    return Field(grid, _inverse_array(acc))


@lru_cache(maxsize=32)
def axis_coordinates(grid: GridSpec) -> tuple:
    """Per-axis coordinate arrays in [0, L), broadcastable to the grid shape."""
    x = np.arange(grid.n) * grid.spacing
    return tuple(
        x.reshape((1,) * ax + (grid.n,) + (1,) * (grid.d - ax - 1)) for ax in range(grid.d)
    )


def displacement(grid: GridSpec, center) -> list[np.ndarray]:
    """Minimal-image displacement x - center per axis (each in [-L/2, L/2))."""
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if center.shape != (grid.d,):
        raise DomainError(f"center must have {grid.d} components")
    L = grid.box_length
    out = []
    for ax, x in enumerate(axis_coordinates(grid)):
        dx = np.mod(x - center[ax] + 0.5 * L, L) - 0.5 * L
        out.append(dx)
    return out


def radial_distance(grid: GridSpec, center) -> np.ndarray:
    """Periodic distance |x - center| on the full grid."""
    disp = displacement(grid, center)
    dist_sq = np.zeros(grid.shape)
    for dx in disp:
        dist_sq = dist_sq + dx**2
    return np.sqrt(dist_sq)
