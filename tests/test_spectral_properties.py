"""Property tests of the half-spectrum kernels on random fields, d = 1, 2, 3.

Each kernel is held against a full-spectrum ``numpy.fft`` reference (the
complex-coefficient recipe, real part taken after each inverse), and the
linear flow and the dyadic projections against their algebraic identities.
The fields are white noise, so every Nyquist plane carries weight.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlkg.grid import (Field, GridSpec, State, _pad2x_power, bessel_derivative,
                       bessel_symbol, forward_transform, fractional_derivative,
                       inverse_transform, lp_bump, lp_project, spectral_divergence,
                       spectral_gradient)
from nlkg.solver import SpectralStepper, _propagator_tables, linear_propagator

from conftest import full_magnitude, full_mesh

RTOL = 1e-12

grids = st.builds(GridSpec, d=st.sampled_from([1, 2, 3]), n=st.sampled_from([8, 16]),
                  box_length=st.floats(2.0, 20.0))
seeds = st.integers(0, 2**32 - 1)
masses = st.floats(0.0, 1.0)
steps = st.floats(-1.0, 1.0)
examples = settings(max_examples=30, deadline=None)


def noise(grid: GridSpec, seed: int, count: int = 1) -> list:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(grid.shape) for _ in range(count)]


def full_filter(values: np.ndarray, weights) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(values) * weights).real


def rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def full_pad2x_power(u: np.ndarray, q: int) -> np.ndarray:
    """u**q through a zero-padded (2n)^d grid on full complex coefficients."""
    n, d = u.shape[0], u.ndim
    low = np.ix_(*[np.r_[0 : n // 2, 2 * n - n // 2 : 2 * n]] * d)  # wavenumbers -n/2..n/2-1
    big = np.zeros((2 * n,) * d, dtype=np.complex128)
    big[low] = np.fft.fftn(u)
    W = np.fft.fftn((np.fft.ifftn(big).real * 2**d) ** q)
    return np.fft.ifftn(W[low] / 2**d).real


@examples
@given(grids, seeds)
def test_gradient_matches_full_spectrum(grid, seed):
    (u,) = noise(grid, seed)
    for got, k in zip(spectral_gradient(Field(grid, u)), full_mesh(grid)):
        assert rel_err(got.values, full_filter(u, 1j * k)) < RTOL


@examples
@given(grids, seeds)
def test_divergence_matches_full_spectrum(grid, seed):
    comps = noise(grid, seed, grid.d)
    ref = np.fft.ifftn(sum(np.fft.fftn(c) * (1j * k) for c, k in zip(comps, full_mesh(grid)))).real
    got = spectral_divergence([Field(grid, c) for c in comps]).values
    assert rel_err(got, ref) < RTOL


@examples
@given(grids, seeds, st.sampled_from(["leq", "gt", "band"]), st.floats(0.5, 40.0))
def test_lp_project_matches_full_spectrum(grid, seed, mode, N):
    (u,) = noise(grid, seed)
    mag = full_magnitude(grid)
    weights = {"leq": lp_bump(mag / N), "gt": 1.0 - lp_bump(mag / N),
               "band": lp_bump(mag / N) - lp_bump(2.0 * mag / N)}[mode]
    ref = full_filter(u, weights)
    got = lp_project(Field(grid, u), N, mode).values
    assert np.max(np.abs(got - ref)) <= RTOL * max(np.max(np.abs(ref)), np.max(np.abs(u)))


def full_symbol(mag: np.ndarray, symbol) -> np.ndarray:
    """symbol(|xi|) on the full spectrum, 0 at xi = 0 where it is not finite."""
    with np.errstate(divide="ignore", over="ignore"):
        w = symbol(mag)
    if not np.isfinite(w.flat[0]):
        w.flat[0] = 0.0
    return w


@examples
@given(grids, seeds, st.floats(-2.0, 2.0), masses)
def test_multipliers_match_full_spectrum(grid, seed, s, m):
    # |xi|^s for s < 0, and (m^2 + |xi|^2)^(s/2) for m = 0 and s < 0, are
    # singular at xi = 0: the derivatives take 0 there
    (u,) = noise(grid, seed)
    f, mag = Field(grid, u), full_magnitude(grid)
    power = lambda k: k**s  # noqa: E731
    bessel = lambda k: bessel_symbol(k, m) ** s  # noqa: E731
    for got, weights in [(fractional_derivative(f, s), full_symbol(mag, power)),
                         (bessel_derivative(f, s, m), full_symbol(mag, bessel)),
                         (bessel_derivative(f, s, 0.0), full_symbol(mag, power))]:
        assert rel_err(got.values, full_filter(u, weights)) < RTOL


@examples
@given(grids, seeds)
def test_transforms_round_trip(grid, seed):
    (u,) = noise(grid, seed)
    F = forward_transform(Field(grid, u))
    assert F.coefficients.shape == grid.shape[:-1] + (grid.n // 2 + 1,)
    assert rel_err(inverse_transform(F).values, u) < RTOL


@examples
@given(grids, seeds, masses, steps)
@example(grid=GridSpec(1, 8, 2.0), seed=0, m=5e-324, dt=0.5)  # dt w underflows at the zero mode
def test_linear_propagator_matches_full_spectrum(grid, seed, m, dt):
    u, v = noise(grid, seed, 2)
    w = np.hypot(full_magnitude(grid), m)
    c, s = np.cos(dt * w), np.sin(dt * w)
    small = np.abs(dt * w) < np.finfo(np.float64).tiny  # sin(dt w)/w -> dt there
    sinc = np.where(small, dt, s / np.where(small, 1.0, w))
    U, V = np.fft.fftn(u), np.fft.fftn(v)
    out = linear_propagator(State(Field(grid, u), Field(grid, v), 0.0, m, 2.0), dt)
    assert rel_err(out.u.values, np.fft.ifftn(c * U + sinc * V).real) < RTOL
    assert rel_err(out.v.values, np.fft.ifftn(-w * s * U + c * V).real) < RTOL


@examples
@given(grids, seeds, masses, steps, st.sampled_from([1.8, 2.0, 3.0]), st.floats(0.0, 1.0))
@example(grid=GridSpec(1, 8, 2.0), seed=0, m=5e-324, dt=0.5, p=2.0, nl=0.0)
def test_stepper_step_matches_full_spectrum_strang_step(grid, seed, m, dt, p, nl):
    # half kick, exact flow and half kick on physical (u, v) and full coefficients
    u, v = noise(grid, seed, 2)
    w = np.hypot(full_magnitude(grid), m)
    c, s = np.cos(dt * w), np.sin(dt * w)
    small = np.abs(dt * w) < np.finfo(np.float64).tiny  # sin(dt w)/w -> dt there
    sinc = np.where(small, dt, s / np.where(small, 1.0, w))
    kicked = v + 0.5 * dt * nl * np.abs(u) ** p * u
    U, V = np.fft.fftn(u), np.fft.fftn(kicked)
    u_ref = np.fft.ifftn(c * U + sinc * V).real
    v_ref = np.fft.ifftn(-w * s * U + c * V).real + 0.5 * dt * nl * np.abs(u_ref) ** p * u_ref
    stepper = SpectralStepper(State(Field(grid, u), Field(grid, v), 0.0, m, p), nl)
    stepper.step(dt)
    out = stepper.state()
    assert out.time == dt
    assert rel_err(out.u.values, u_ref) < RTOL
    assert rel_err(out.v.values, v_ref) < RTOL


@examples
@given(grids, seeds, st.sampled_from([3, 5]))
def test_pad2x_matches_full_spectrum(grid, seed, q):
    (u,) = noise(grid, seed)
    assert rel_err(_pad2x_power(u, q), full_pad2x_power(u, q)) < RTOL


def _state(grid, seed, m):
    u, v = noise(grid, seed, 2)
    return State(Field(grid, u), Field(grid, v), 0.0, m, 2.0)


def _close(a: State, b: State) -> bool:
    return rel_err(a.u.values, b.u.values) < RTOL and rel_err(a.v.values, b.v.values) < RTOL


@examples
@given(grids, seeds, masses, steps, steps)
@example(GridSpec(1, 8, 2.0), 0, 5e-324, 1.0, 0.5)  # a subnormal m: dt w underflows
def test_propagator_composes(grid, seed, m, a, b):
    st0 = _state(grid, seed, m)
    assert _close(linear_propagator(linear_propagator(st0, b), a), linear_propagator(st0, a + b))


@pytest.mark.parametrize("m", [5e-324, 1e-320])
@pytest.mark.parametrize("dt", [0.5, 1.5])
def test_propagator_zero_mode_at_a_subnormal_mass(m, dt):
    # sin(dt w)/w at w = m, where dt w is subnormal, is its limit dt
    c, sinc, ws = (table.flat[0] for table in _propagator_tables(GridSpec(2, 8, 2.0), m, dt))
    assert (c, sinc) == (1.0, dt) and abs(ws) < 1e-300


@examples
@given(grids, seeds, masses, steps)
def test_propagator_time_reversal(grid, seed, m, dt):
    st0 = _state(grid, seed, m)
    assert _close(linear_propagator(linear_propagator(st0, dt), -dt), st0)


@examples
@given(grids, seeds, st.floats(0.5, 40.0))
def test_low_plus_high_projection_is_identity(grid, seed, N):
    (u,) = noise(grid, seed)
    f = Field(grid, u)
    total = lp_project(f, N, "leq").values + lp_project(f, N, "gt").values
    assert rel_err(total, u) < RTOL
