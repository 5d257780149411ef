"""Periodic-box discretization, FFT transforms, Fourier multipliers, and
dyadic (Littlewood-Paley style) frequency projections.

All fields live on a d-dimensional periodic box [0, L)^d sampled on n
points per axis (n a power of two), as float64 arrays in physical space.
There is one spectral layout, the real half-spectrum: the
``rfftn`` coefficients, which keep only the wavenumbers 0..n/2 of the
last axis because the rest follow from Hermitian symmetry.  The public
:class:`SpectralField` holds exactly that array, and every kernel works
on it.  One transform pair makes it, numpy.fft's per-axis passes into given
buffers (:func:`_forward_into`, :func:`_inverse_into`), pruned to the weights'
support by the projections and to a ball's lines by its gradient.
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
    """The half-spectrum of a real field: its ``rfftn`` coefficients, of
    shape grid.shape[:-1] + (n//2 + 1,)."""

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128)
        shape = self.grid.shape[:-1] + (self.grid.n // 2 + 1,)
        if c.shape != shape:
            raise DomainError(f"coefficient shape {c.shape} does not match the "
                              f"half-spectrum shape {shape}")
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
        _check_exponent(self.u.grid.d, self.exponent)

    @property
    def grid(self) -> GridSpec:
        return self.u.grid


def _check_exponent(d: int, p: float) -> None:
    """DomainError unless p lies in the admissible range: p > 0, and p < 4/(d-2) for d >= 3."""
    if p <= 0.0:
        raise DomainError(f"nonlinearity exponent p must be positive, got {p}")
    if d >= 3 and p >= 4.0 / (d - 2):
        raise DomainError(f"exponent p={p} outside admissible range (0, {4.0 / (d - 2)}) for d={d}")


@lru_cache(maxsize=32)
def _wavenumber_mesh(grid: GridSpec) -> tuple:
    """Per-axis wavenumbers broadcastable to the half-spectrum: fftfreq on
    every axis but the last, rfftfreq on the last."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    axes = [k] * (grid.d - 1) + [2.0 * np.pi * np.fft.rfftfreq(grid.n, d=grid.spacing)]
    return tuple(
        kk.reshape((1,) * ax + (kk.size,) + (1,) * (grid.d - ax - 1))
        for ax, kk in enumerate(axes)
    )


@lru_cache(maxsize=32)
def _magnitude(grid: GridSpec) -> np.ndarray:
    """|xi| on the half-spectrum."""
    return np.sqrt(sum(k**2 for k in _wavenumber_mesh(grid)))


@lru_cache(maxsize=32)
def _derivative_symbols(grid: GridSpec) -> tuple:
    """i xi_ax per axis on the half-spectrum, 0 at that axis's Nyquist
    wavenumber: there i xi is not Hermitian, and the derivative of a real
    field keeps no Nyquist part (the real part of the full inverse drops it)."""
    out = []
    for k in _wavenumber_mesh(grid):
        k = k.copy()
        k.flat[grid.n // 2] = 0.0
        out.append(1j * k)
    return tuple(out)


@lru_cache(maxsize=32)
def _half_multiplicity(grid: GridSpec) -> np.ndarray:
    """Full-spectrum modes each half-spectrum coefficient stands for, along
    the last axis: 1 on its zero and Nyquist planes, 2 in between."""
    w = np.full(grid.n // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


def _forward_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (unnormalized) half-spectrum of `values` into `out`: rfft on the
    last axis, then fft over axes 0, ..., d-2 in place.  That is pocketfft's
    n-d order, so the coefficients of ``scipy.fft.rfftn`` bit for bit."""
    np.fft.rfft(values, axis=-1, out=out)
    for ax in range(values.ndim - 1):
        np.fft.fft(out, axis=ax, out=out)
    return out


def _inverse_into(coefficients: np.ndarray, work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The real array with half-spectrum `coefficients` into `out`: ifft over
    axes 0, ..., d-2 into `work` (`coefficients` stay as they are unless they are it), then
    irfft, reading only the Hermitian part of the last axis's zero and Nyquist
    planes.  Each 1/n is exact for n = 2^k: ``scipy.fft.irfftn`` bit for bit."""
    src = coefficients
    for ax in range(out.ndim - 1):
        src = np.fft.ifft(src, axis=ax, out=work)
    return np.fft.irfft(src, out.shape[-1], axis=-1, out=out)


def _forward_array(values: np.ndarray) -> np.ndarray:
    """:func:`_forward_into` a new array: the transform every kernel uses."""
    out = np.empty(values.shape[:-1] + (values.shape[-1] // 2 + 1,), dtype=np.complex128)
    return _forward_into(values, out)


def _inverse_array(coefficients: np.ndarray, shape: tuple) -> np.ndarray:
    """:func:`_inverse_into` a new array of `shape`; `coefficients` stay as they are."""
    return _inverse_into(coefficients, np.empty_like(coefficients), np.empty(shape))


def _inverse_at(spectra: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Rows ``_inverse_array(F, inside.shape)[inside]`` bit for bit, F in the stack
    `spectra` (overwritten).  After each ifft only the slabs or lines through a
    point of `inside` go on, and the last lines are finite-checked as in Field."""
    a, keep = spectra[:, None], inside[None]
    for _ in range(inside.ndim - 1):
        a = np.fft.ifft(a, axis=2, out=a)
        rows = keep.any(axis=tuple(range(2, keep.ndim)))
        a, keep = a[:, rows], keep[rows]
    lines = np.fft.irfft(a, inside.shape[-1], axis=-1)
    _check_finite(lines, "Field")
    return lines[:, keep]


def _project_into(coefficients: np.ndarray, weights: np.ndarray, work: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """``_inverse_array(coefficients * weights, out.shape)`` bit for bit, in
    buffers the caller owns: the product goes to `work` (a half-spectrum
    array, which may be `coefficients` itself), the passes over every axis
    but the last run there in place, and the last axis's pass writes `out`.
    Those passes cover only the last-axis columns up to the last one where
    `weights` is nonzero: past it the product is zero, and so is its
    transform (a pruned FFT).  All-zero `weights` are not pruned, so that
    the signs of the zeros agree too.  `weights` is left untouched."""
    np.multiply(coefficients, weights, out=work)
    live = np.flatnonzero(weights.reshape(-1, weights.shape[-1]).any(axis=0))
    head = work[..., :live[-1] + 1 if live.size else None]
    for ax in range(work.ndim - 1):
        np.fft.ifft(head, axis=ax, out=head)
    return np.fft.irfft(work, out.shape[-1], axis=-1, out=out)


def forward_transform(f: Field) -> SpectralField:
    """Unnormalized discrete Fourier transform of a real field, as its
    half-spectrum: the validated :func:`_forward_array`."""
    _check_finite(f.values, "forward_transform input")
    return SpectralField(f.grid, _forward_array(f.values))


def inverse_transform(F: SpectralField) -> Field:
    """The real field with half-spectrum F (see :func:`_inverse_array`)."""
    return Field(F.grid, _inverse_array(F.coefficients, F.grid.shape))


def bessel_symbol(xi_mag, m: float):
    """sqrt(m^2 + |xi|^2), the dispersion weight of the linear flow."""
    return np.hypot(np.asarray(xi_mag, dtype=np.float64), m)


def _radial_weights(grid: GridSpec, s: float, m: float | None = None) -> np.ndarray:
    """Half-spectrum weights |xi|^s (m None) or (m^2 + |xi|^2)^{s/2}, with 0 at
    xi = 0 where the symbol is not finite there; a non-finite value at any
    other grid wavenumber is a DomainError.  Not cached: a held table raises the
    peak memory of a decomposition more than rebuilding it costs."""
    mag = _magnitude(grid)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        weights = (mag if m is None else bessel_symbol(mag, m)) ** s
    if not np.isfinite(weights.flat[0]):
        weights.flat[0] = 0.0
    if not np.all(np.isfinite(weights)):
        raise DomainError("symbol is not finite at a nonzero grid wavenumber")
    return weights


def lp_bump(r):
    """Radial cutoff profile: 1 on r <= 1, 0 on r >= 11/10, quintic blend between.

    The blend is the unique quintic matching value and first two
    derivatives at both ends, so the profile is C^2 and reproducible
    bit-exactly.  It is evaluated on the blend shell only; NaN stays NaN.
    """
    r = np.asarray(r, dtype=np.float64)
    out = np.where(r >= 1.1, 0.0, r)  # keeps NaN
    out[r <= 1.0] = 1.0
    shell = (r > 1.0) & (r < 1.1)
    s = (r[shell] - 1.0) / 0.1  # in (0, 1) on the shell
    out[shell] = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    return out[()]  # a scalar for a scalar r


def _lp_multiplier(grid: GridSpec, n_dyadic: float, mode: str) -> np.ndarray:
    """Half-spectrum weights of the dyadic projection `mode` at N = n_dyadic."""
    mag = _magnitude(grid)
    if n_dyadic <= 0:
        raise DomainError("dyadic frequency must be positive")
    if mode == "leq":
        return lp_bump(mag / n_dyadic)
    if mode == "gt":
        return 1.0 - lp_bump(mag / n_dyadic)
    if mode == "band":
        return lp_bump(mag / n_dyadic) - lp_bump(2.0 * mag / n_dyadic)
    raise DomainError(f"unknown projection mode {mode!r}")


def _band_multipliers(grid: GridSpec, band: np.ndarray):
    """_lp_multiplier(grid, N, "band") bit for bit for each N of a `dyadic_range`,
    adjacent bands sharing one lp_bump: 2 |xi| / N == |xi| / (N/2) exactly."""
    mag = _magnitude(grid)
    inner = lp_bump(2.0 * mag / band[0])
    for N in band:
        outer = lp_bump(mag / N)
        yield outer - inner
        inner = outer


def lp_project(f: Field, n_dyadic: float, mode: str = "band") -> Field:
    """Dyadic frequency projection: mode is 'leq', 'gt', or 'band'.

    P_{<=N} + P_{>N} is the identity exactly, and the band projections
    telescope: summing bands above N up to the grid's top dyadic
    reproduces P_{>N} on the finite grid.
    """
    F = _forward_array(f.values)
    return Field(f.grid, _project_into(F, _lp_multiplier(f.grid, n_dyadic, mode), F,
                                       np.empty(f.grid.shape)))


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
    """|nabla|^s via the multiplier |xi|^s; the zero mode is annihilated for s < 0."""
    return _radial_filter(f, s, None)


def bessel_derivative(f: Field, s: float, m: float = 1.0) -> Field:
    """<nabla>_m^s via the multiplier (m^2+|xi|^2)^{s/2}.

    For m = 0 and s < 0 the zero mode is annihilated (homogeneous
    convention: negative-order operators ignore the mean).
    """
    return _radial_filter(f, s, m)


def _radial_filter(f: Field, s: float, m: float | None) -> Field:
    """f filtered by :func:`_radial_weights` (f itself at s = 0)."""
    if s == 0.0:
        return f
    F = _forward_array(f.values) * _radial_weights(f.grid, s, m)
    return Field(f.grid, _inverse_array(F, f.grid.shape))


def spectral_gradient(f: Field, inside: np.ndarray | None = None) -> list:
    """All first partial derivatives of f, spectrally (given a boolean mask `inside`,
    arrays of their values there, in C order).  Each axis's Nyquist wavenumber is
    dropped, which `norms.sobolev_norm(f, 1)` keeps: see there for a field where they differ."""
    F = _forward_array(f.values)
    symbols = _derivative_symbols(f.grid)
    if inside is not None:
        spectra = np.empty((f.grid.d, *F.shape), dtype=np.complex128)
        for ik, G in zip(symbols, spectra):
            np.multiply(F, ik, out=G)
        return list(_inverse_at(spectra, inside))
    G = np.empty_like(F)
    return [Field(f.grid, _inverse_into(np.multiply(F, ik, out=G), G, np.empty(f.grid.shape)))
            for ik in symbols]


def spectral_divergence(components: list[Field]) -> Field:
    """Divergence of a vector field, computed spectrally."""
    grid = components[0].grid
    if len(components) != grid.d:
        raise DomainError(f"expected {grid.d} components, got {len(components)}")
    acc = sum(_forward_array(comp.values) * ik
              for comp, ik in zip(components, _derivative_symbols(grid)))
    return Field(grid, _inverse_array(acc, grid.shape))


def _pad2x_power(u: np.ndarray, q: int) -> np.ndarray:
    """u**q evaluated on the grid refined 2x by zero padding, then truncated
    back to the modes of u.

    This is the full-layout recipe (pad the n^d coefficients into a (2n)^d
    array, keep the real part of each inverse) on the half-spectrum.  That
    real part splits the Nyquist coefficient between -n/2 and +n/2: a mode
    whose Nyquist components all sit at -n/2, or all at +n/2, carries half
    of it, and a mixed one none.  `neg` and `pos` index those two copies.
    """
    n, d = u.shape[0], u.ndim
    h = n // 2
    neg = np.r_[0:h, 2 * n - h : 2 * n]  # small index -> big index, Nyquist at -n/2
    pos = neg.copy()
    pos[h] = h  # Nyquist at +n/2
    last = np.arange(h + 1)
    at_neg = np.ix_(*[neg] * (d - 1), last)
    at_pos = np.ix_(*[pos] * (d - 1), last)
    # the half layout has no -n/2 slot on the last axis: weight 0 on the
    # -n/2 copy there; irfftn takes the Hermitian part of that plane, so
    # doubling the +n/2 copy on the way back stands for the pair
    no_last_nyquist = np.ones(h + 1)
    no_last_nyquist[h] = 0.0
    twice_last_nyquist = np.ones(h + 1)
    twice_last_nyquist[h] = 2.0

    U = _forward_array(u)
    big = np.zeros((2 * n,) * (d - 1) + (n + 1,), dtype=np.complex128)
    big[at_neg] += 0.5 * no_last_nyquist * U
    big[at_pos] += 0.5 * U
    u_big = _inverse_array(big, (2 * n,) * d) * (2**d)
    W = _forward_array(u_big**q)
    small = (W[at_neg] * no_last_nyquist + W[at_pos] * twice_last_nyquist) / 2 ** (d + 1)
    return _inverse_array(small, u.shape)


@lru_cache(maxsize=32)
def axis_coordinates(grid: GridSpec) -> tuple:
    """Per-axis coordinate arrays in [0, L), broadcastable to the grid shape."""
    x = np.arange(grid.n) * grid.spacing
    return tuple(
        x.reshape((1,) * ax + (grid.n,) + (1,) * (grid.d - ax - 1)) for ax in range(grid.d)
    )


def displacement(grid: GridSpec, center) -> list[np.ndarray]:
    """Minimal-image displacement x - center per axis (each in [-L/2, L/2)); read-only."""
    return list(_distance_table(grid, _center_key(grid, center))[0])


def radial_distance(grid: GridSpec, center) -> np.ndarray:
    """Periodic distance |x - center| on the full grid; read-only."""
    return _distance_table(grid, _center_key(grid, center))[1]


def _transient_distance(grid: GridSpec, center) -> np.ndarray:
    """:func:`radial_distance` outside the cache, for a one-off centre."""
    return _distances(grid, _center_key(grid, center))[1]


def _center_key(grid: GridSpec, center) -> tuple:
    center = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if center.shape != (grid.d,):
        raise DomainError(f"center must have {grid.d} components")
    return tuple(center.tolist())


def _distances(grid: GridSpec, center: tuple, cells=slice(None)) -> tuple:
    """The minimal-image displacements x - center per axis (each in [-L/2, L/2),
    broadcastable as ``np.ix_`` makes them) and the distance |x - center|, on
    the cells `cells` of every axis (all of them by default); not cached."""
    x = np.arange(grid.n)[cells] * grid.spacing
    disp = np.ix_(*(_min_image(x - c, grid.box_length) for c in center))
    return disp, np.sqrt(sum(dx**2 for dx in disp))


def _min_image(delta, L: float):
    """The minimal image of the displacement `delta` on a period L, in [-L/2, L/2)."""
    return np.mod(delta + 0.5 * L, L) - 0.5 * L


@lru_cache(maxsize=4)
def _distance_table(grid: GridSpec, center: tuple) -> tuple:
    """:func:`_distances` of one (grid, center), built once; read-only."""
    disp, dist = _distances(grid, center)
    for a in (*disp, dist):
        a.flags.writeable = False
    return disp, dist


@lru_cache(maxsize=4)
def _lattice_offsets(grid: GridSpec, center: tuple):
    """k.k of the integer minimal-image offsets k = x/h - c/h, each axis in
    [-n/2, n/2), when c is a lattice point; None otherwise.  Exact, where the
    float distance table can miss a lattice distance by an ulp; read-only."""
    index = [c / grid.spacing for c in center]
    if not all(i.is_integer() for i in index):
        return None
    n = grid.n
    sq = np.zeros(grid.shape, dtype=np.int64)
    for ax, i in enumerate(index):
        k = (np.arange(n) - int(i) + n // 2) % n - n // 2
        sq = sq + (k**2).reshape((1,) * ax + (n,) + (1,) * (grid.d - ax - 1))
    sq.flags.writeable = False
    return sq
