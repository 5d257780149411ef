import numpy as np
import pytest

from nlkg.errors import DomainError
from nlkg.grid import Field, GridSpec, State, axis_coordinates, radial_distance, spectral_gradient
from nlkg.norms import (
    CriticalParams,
    _Pieces,
    _power_sum,
    critical_exponent,
    energy,
    gn_ratio,
    gn_second_ratio,
    lebesgue_norm,
    sobolev_norm,
)

from conftest import cosine_field, random_field

# Regression constants measured once on the seeded corpus (n=64, L=8, 100
# fields) and the Gaussian width family; see test docstrings.
GN_CORPUS_CEILING_D2P4 = 0.004
GN_SECOND_CORPUS_CEILING_D2P4 = 0.21
GN_GAUSSIAN_FAMILY_MAX = 0.2122082


def ones_about(grid: GridSpec, apex) -> _Pieces:
    """The field view of u = 1, u_t = 0 about `apex`."""
    one, zero = Field(grid, np.ones(grid.shape)), Field(grid, np.zeros(grid.shape))
    return _Pieces(State(one, zero, 0.0, 0.0, 2.0), apex=apex)


class TestCriticalExponent:
    def test_conformal_d3(self):
        params = critical_exponent(3, 2.0)
        assert params.s_c == pytest.approx(0.5)
        assert params.regime == "conformal"

    def test_conformal_d2(self):
        params = critical_exponent(2, 4.0)
        assert params.s_c == pytest.approx(0.5)
        assert params.regime == "conformal"

    def test_super_conformal_d3(self):
        params = critical_exponent(3, 8.0 / 3.0)
        assert params.s_c == pytest.approx(0.75)
        assert params.regime == "super_conformal"

    def test_sub_conformal_alpha(self):
        params = critical_exponent(3, 1.8)
        assert params.regime == "sub_conformal"
        assert params.alpha == pytest.approx(0.5 - (1.5 - 2.0 / 1.8))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            critical_exponent(3, 4.0)
        with pytest.raises(DomainError):
            critical_exponent(2, -1.0)

    @pytest.mark.parametrize("d, p", [(3, 4.0), (3, 5.0), (2, -1.0), (1, 0.0),
                                      (2, float("nan")), (2, float("inf")), (3, float("nan"))])
    def test_state_and_critical_exponent_reject_alike(self, d, p):
        # one admissible-exponent rule: the same error from both
        g = GridSpec(d, 8, 4.0)
        z = Field(g, np.zeros(g.shape))
        with pytest.raises(DomainError) as from_params:
            critical_exponent(d, p)
        with pytest.raises(DomainError) as from_state:
            State(z, z, 0.0, 0.5, p)
        assert str(from_params.value) == str(from_state.value)


class TestLebesgueNorm:
    def test_zero_field(self, grid2d):
        f = Field(grid2d, np.zeros(grid2d.shape))
        for q in (1.0, 2.0, 3.5, np.inf):
            assert lebesgue_norm(f, q) == 0.0

    def test_constant_l2(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, -1.5))
        expected = 1.5 * grid2d.box_length ** (grid2d.d / 2.0)
        assert lebesgue_norm(f, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_l2_against_exact_integral(self):
        # closed-form oracle: int exp(-|x|^2) dx = pi in d = 2
        g = GridSpec(2, 128, 16.0)
        r = radial_distance(g, (8.0, 8.0))
        f = Field(g, np.exp(-(r**2) / 2.0))
        assert lebesgue_norm(f, 2.0) == pytest.approx(np.sqrt(np.pi), rel=1e-4)

    # the norm over part of the box is the one ball quadrature, a ball view's integral
    def test_ball_region(self, grid2d):
        ins = ones_about(grid2d, (4.0, 4.0)).ball(1.5)
        vol = ins.integral(np.abs(ins.u))
        assert vol == pytest.approx(np.pi * 1.5**2, rel=0.05)

    def test_empty_region_returns_zero(self, grid2d):
        ins = ones_about(grid2d, (4.03, 4.03)).ball(1e-6)
        assert ins.integral(np.abs(ins.u) ** 2) == 0.0

    def test_half_cone_slice_region(self, grid2d):
        # half the slice radius, tapered by (1 - r/R)^w
        R = 2.0
        ins = ones_about(grid2d, (4.0, 4.0)).ball(R / 2.0)
        vol_half = ins.integral(np.abs(ins.u))
        assert vol_half == pytest.approx(np.pi * (R / 2.0) ** 2, rel=0.05)
        # closed-form weighted volume: 2 pi int_0^{R/2} (1 - r/R)^2 r dr
        expected = 2.0 * np.pi * (R**2 / 8.0 - 2.0 * R**2 / 24.0 + R**2 / 64.0)
        weighted = ins.integral(np.abs(ins.u) * (1.0 - ins.dist / R) ** 2.0)
        assert weighted == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("q", [2, 4, 6, 8, 10, 12, 14])
    def test_power_sum_is_the_repeated_squaring_sequence(self, q, rng):
        # the sequence before v * v was formed once: out = v*v and square =
        # v*v, then per binary digit of q/2 after the first, out *= out and,
        # for a 1, out *= square
        for shape in ((256,), (32, 48), (8, 8, 16)):
            values = rng.standard_normal(shape) * rng.uniform(0.1, 3.0)
            out = values * values
            for bit in bin(q // 2)[3:]:
                out *= out
                if bit == "1":
                    out *= values * values
            want = float(np.sum(out))
            assert _power_sum(values.copy(), q) == want
            assert _power_sum(values.copy(), q, out=np.empty(shape)) == want

    def test_holder_monotonicity(self, grid2d, rng):
        # volume-normalized q-norms are nondecreasing in q
        f = random_field(grid2d, rng)
        V = grid2d.volume
        qs = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
        vals = [lebesgue_norm(f, q) / V ** (1.0 / q) for q in qs]
        assert np.all(np.diff(vals) >= -1e-12)


class TestSobolevNorm:
    def test_single_mode_scaling(self, grid2d):
        f = cosine_field(grid2d, (3, 4))
        k = 2.0 * np.pi / grid2d.box_length * 5.0
        l2 = lebesgue_norm(f, 2.0)
        for s in (-1.0, 0.5, 1.0, 1.7):
            assert sobolev_norm(f, s) == pytest.approx(k**s * l2, rel=1e-10)

    def test_s_zero_equals_l2(self, grid2d, rng):
        f = random_field(grid2d, rng)
        assert sobolev_norm(f, 0.0) == pytest.approx(lebesgue_norm(f, 2.0), rel=1e-10)

    def test_h1_against_finite_difference_oracle(self):
        # fourth-order centered differences as an independent gradient quadrature
        g = GridSpec(2, 512, 12.0)
        r = radial_distance(g, (6.0, 6.0))
        f = Field(g, np.exp(-(r**2) / 2.0))
        h = g.spacing
        acc = np.zeros(g.shape)
        for ax in range(g.d):
            f1 = np.roll(f.values, -1, axis=ax) - np.roll(f.values, 1, axis=ax)
            f2 = np.roll(f.values, -2, axis=ax) - np.roll(f.values, 2, axis=ax)
            acc += ((8.0 * f1 - f2) / (12.0 * h)) ** 2
        oracle = np.sqrt(np.sum(acc) * g.cell_volume)
        assert sobolev_norm(f, 1.0) == pytest.approx(oracle, rel=1e-6)

    def test_h1_equals_l2_of_spectral_gradient(self, grid2d, rng):
        f = random_field(grid2d, rng)
        grad_sq = sum(gi.values**2 for gi in spectral_gradient(f))
        direct = np.sqrt(np.sum(grad_sq) * grid2d.cell_volume)
        assert sobolev_norm(f, 1.0) == pytest.approx(direct, rel=1e-10)

    def test_inhomogeneous_constant(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, 2.0))
        # <xi>_1 weight is 1 at the zero mode, so this is just the L2 norm
        assert sobolev_norm(f, -0.5, homogeneous=False, m=1.0) == pytest.approx(
            lebesgue_norm(f, 2.0), rel=1e-12)


def test_two_h1_conventions_on_a_nyquist_mode():
    # sobolev_norm keeps each axis's Nyquist wavenumber; spectral_gradient,
    # and so energy, drops it.  Pinned so that a change to either shows.
    g = GridSpec(2, 32, 8.0)
    f = cosine_field(g, (g.n // 2, 0))  # cos(pi x / h) = (-1)^j along axis 0
    assert sobolev_norm(f, 1.0) == pytest.approx(100.53, abs=5e-3)
    assert sobolev_norm(f, 1.0) == pytest.approx(np.pi * g.n, rel=1e-13)  # |xi| ||f||_2
    assert all(np.max(np.abs(d.values)) < 1e-12 for d in spectral_gradient(f))
    still = State(f, Field(g, np.zeros(g.shape)), 0.0, 0.0, 2.0)
    assert abs(energy(still, nl_coeff=0.0)) < 1e-20


class TestEnergy:
    def test_zero_state(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        assert energy(State(z, z, 0.0, 0.5, 2.0)) == 0.0

    def test_constant_state_closed_form(self, grid2d):
        A, m, p = 1.3, 0.7, 2.0
        u = Field(grid2d, np.full(grid2d.shape, A))
        v = Field(grid2d, np.zeros(grid2d.shape))
        V = grid2d.volume
        expected = V * (m**2 * A**2 / 2.0 - A ** (p + 2.0) / (p + 2.0))
        assert energy(State(u, v, 0.0, m, p)) == pytest.approx(expected, rel=1e-12)

    def test_plane_wave_against_midpoint_quadrature(self, grid2d):
        # independent oracle: closed-form integrand summed on a half-cell
        # shifted lattice (exact for trig polynomials below Nyquist)
        m, p = 1.0, 2.0
        f = cosine_field(grid2d, (2, 1))
        v = Field(grid2d, np.zeros(grid2d.shape))
        st = State(f, v, 0.0, m, p)
        k = 2.0 * np.pi / grid2d.box_length * np.array([2.0, 1.0])
        h = grid2d.spacing
        xs = [x + 0.5 * h for x in axis_coordinates(grid2d)]
        phase = sum(kk * x for kk, x in zip(k, xs))
        u_mid = np.cos(phase)
        grad_sq_mid = np.sum(k**2) * np.sin(phase) ** 2
        dens = 0.5 * grad_sq_mid + 0.5 * m**2 * u_mid**2 \
            - np.abs(u_mid) ** (p + 2.0) / (p + 2.0)
        oracle = np.sum(dens) * grid2d.cell_volume
        assert energy(st) == pytest.approx(oracle, rel=1e-8)


class TestGagliardoNirenberg:
    def test_positive(self, grid2d, rng):
        params = critical_exponent(2, 4.0)
        assert gn_ratio(random_field(grid2d, rng), params) > 0.0

    def test_scale_invariance_on_gaussian(self, grid2d):
        params = critical_exponent(2, 4.0)
        r = radial_distance(grid2d, (4.0, 4.0))
        wide = Field(grid2d, np.exp(-(r**2) / (2.0 * 1.0**2)))
        half = Field(grid2d, np.exp(-(r**2) / (2.0 * 0.5**2)))
        assert gn_ratio(wide, params) == pytest.approx(gn_ratio(half, params), rel=1e-6)

    def test_gaussian_family_regression(self, grid2d):
        params = critical_exponent(2, 4.0)
        r = radial_distance(grid2d, (4.0, 4.0))
        vals = [gn_ratio(Field(grid2d, np.exp(-(r**2) / (2.0 * w**2))), params)
                for w in np.linspace(0.25, 1.0, 13)]
        assert max(vals) == pytest.approx(GN_GAUSSIAN_FAMILY_MAX, abs=2e-6)

    def test_corpus_bounded_by_frozen_constant(self, grid2d):
        params = critical_exponent(2, 4.0)
        rng = np.random.default_rng(1234)
        for _ in range(100):
            f = random_field(grid2d, rng)
            assert gn_ratio(f, params) <= GN_CORPUS_CEILING_D2P4
            assert gn_second_ratio(f, params) <= GN_SECOND_CORPUS_CEILING_D2P4

    def test_zero_denominator(self, grid2d):
        params = critical_exponent(2, 4.0)
        with pytest.raises(DomainError):
            gn_ratio(Field(grid2d, np.zeros(grid2d.shape)), params)
