import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlkg.errors import CorruptionError, DomainError
from nlkg.grid import (
    Field,
    GridSpec,
    SpectralField,
    _radial_weights,
    bessel_derivative,
    bessel_symbol,
    dyadic_range,
    forward_transform,
    fractional_derivative,
    inverse_transform,
    lp_bump,
    lp_project,
    radial_distance,
    spectral_gradient,
)
from nlkg.norms import lebesgue_norm, sobolev_norm

from conftest import cosine_field, full_magnitude, random_field


class TestGridSpec:
    def test_derived_spacing(self):
        g = GridSpec(2, 64, 8.0)
        assert g.spacing * g.n == g.box_length

    @pytest.mark.parametrize("n", [7, 12, 4, 0])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(DomainError):
            GridSpec(2, n, 1.0)

    def test_wavenumbers_cover_expected_set(self):
        g = GridSpec(1, 16, 4.0)
        k = np.sort(2.0 * np.pi * np.fft.fftfreq(g.n, d=g.spacing))
        expected = 2.0 * np.pi / g.box_length * np.arange(-8, 8)
        assert np.allclose(k, expected)


class TestFieldValidation:
    def test_rejects_nan(self, grid2d):
        vals = np.zeros(grid2d.shape)
        vals[3, 4] = np.nan
        with pytest.raises(CorruptionError):
            Field(grid2d, vals)

    def test_rejects_wrong_shape(self, grid2d):
        with pytest.raises(DomainError):
            Field(grid2d, np.zeros((4, 4)))


class TestTransforms:
    def test_constant_field_is_pure_dc(self, grid2d):
        F = forward_transform(Field(grid2d, np.full(grid2d.shape, 3.25)))
        coeffs = F.coefficients.copy()
        assert coeffs[0, 0] == pytest.approx(3.25 * grid2d.num_points)
        coeffs[0, 0] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-9

    def test_single_harmonic_two_modes(self, grid2d):
        # both modes +-3 lie on the first axis, all of which the half-spectrum keeps
        F = forward_transform(cosine_field(grid2d, (3, 0)))
        mags = np.abs(F.coefficients)
        nonzero = np.argwhere(mags > 1e-6 * mags.max())
        assert len(nonzero) == 2

    def test_half_spectrum_layout(self, grid2d, rng):
        f = random_field(grid2d, rng)
        F = forward_transform(f)
        assert F.coefficients.shape == (grid2d.n, grid2d.n // 2 + 1)
        assert np.allclose(F.coefficients, np.fft.fftn(f.values)[:, : grid2d.n // 2 + 1],
                           rtol=0.0, atol=1e-12 * grid2d.num_points)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rejects_full_layout(self, d):
        g = GridSpec(d, 8, 1.0)
        with pytest.raises(DomainError):
            SpectralField(g, np.zeros(g.shape, dtype=np.complex128))

    def test_round_trip(self, grid2d, rng):
        f = random_field(grid2d, rng)
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_plancherel(self, grid2d, rng):
        f = random_field(grid2d, rng)
        phys = np.sum(f.values**2) * grid2d.cell_volume
        F = forward_transform(f)
        # a half-spectrum coefficient stands for 1 full mode on the last axis's
        # zero and Nyquist planes and for 2 (itself and its conjugate) between
        multiplicity = np.full(grid2d.n // 2 + 1, 2.0)
        multiplicity[0] = multiplicity[-1] = 1.0
        spec = np.sum(multiplicity * np.abs(F.coefficients) ** 2) * (
            grid2d.cell_volume / grid2d.num_points)
        assert abs(phys - spec) < 1e-10 * phys

    def test_rejects_nonfinite_input(self, grid2d):
        f = Field(grid2d, np.zeros(grid2d.shape))
        object.__setattr__(f, "values", np.full(grid2d.shape, np.inf))
        with pytest.raises(CorruptionError):
            forward_transform(f)


class TestBesselSymbol:
    def test_values(self):
        assert bessel_symbol(0.0, 1.0) == 1.0
        assert bessel_symbol(0.8, 0.6) == pytest.approx(1.0)
        assert bessel_symbol(2.0, 0.0) == 2.0

    def test_monotone(self):
        xs = np.linspace(0, 5, 50)
        vals = bessel_symbol(xs, 0.7)
        assert np.all(np.diff(vals) > 0)
        assert bessel_symbol(1.0, 0.9) > bessel_symbol(1.0, 0.3)


class TestLittlewoodPaley:
    def test_bump_shape(self):
        assert lp_bump(0.0) == 1.0
        assert lp_bump(1.0) == 1.0
        assert lp_bump(1.1) == 0.0
        assert lp_bump(2.0) == 0.0
        r = np.linspace(1.0, 1.1, 200)
        vals = lp_bump(r)
        assert np.all(np.diff(vals) <= 0)

    def test_bump_equals_the_whole_range_formula(self):
        # lp_bump evaluates its quintic on the blend shell 1 < r < 1.1 only;
        # everywhere it must equal the clipped formula on all of r, bit for bit
        def whole_range(r):
            s = np.clip((r - 1.0) / 0.1, 0.0, 1.0)
            return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)

        ends = np.array([1.0, 1.1])
        near = [ends]
        for _ in range(4):
            near += [np.nextafter(near[-1], 2.0), np.nextafter(near[-1], 0.0)]
        r = np.concatenate(near + [np.linspace(0.9, 1.2, 300_001),
                                   [0.0, -0.0, -1.0, 1.05, 2.0, 1e300, np.inf, -np.inf, np.nan]])
        assert lp_bump(r).tobytes() == whole_range(r).tobytes()
        assert np.isnan(lp_bump(np.nan))
        for x in (0.5, 1.0, 1.05, 1.1, 3.0):
            assert np.ndim(lp_bump(x)) == 0 and lp_bump(x) == whole_range(np.float64(x))

    def test_band_kills_constants(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, 2.0))
        for N in dyadic_range(grid2d):
            out = lp_project(f, N, "band")
            assert np.max(np.abs(out.values)) < 1e-12

    def test_low_pass_keeps_resolved_mode(self, grid2d):
        f = cosine_field(grid2d, (4, 0))
        k = 2.0 * np.pi / grid2d.box_length * 4.0
        out = lp_project(f, 4.0 * k, "leq")
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_leq_plus_gt_is_identity(self, grid2d, rng):
        f = random_field(grid2d, rng)
        for N in (0.8, 3.0, 11.0):
            total = lp_project(f, N, "leq").values + lp_project(f, N, "gt").values
            assert np.max(np.abs(total - f.values)) < 1e-12

    def test_band_telescoping(self, grid2d, rng):
        f = random_field(grid2d, rng)
        N = 2.0
        top = 2.0 ** np.ceil(np.log2(np.max(full_magnitude(grid2d)) / 1.0))
        acc = np.zeros(grid2d.shape)
        Np = 2.0 * N
        while Np <= 2.0 * top:
            acc += lp_project(f, Np, "band").values
            Np *= 2.0
        gt = lp_project(f, N, "gt").values
        assert np.max(np.abs(acc - gt)) < 1e-11

    def test_almost_orthogonality(self, grid2d, rng):
        f = random_field(grid2d, rng, band_limit_frac=0.45)
        l2 = np.sqrt(np.sum(f.values**2) * grid2d.cell_volume)
        dyads = dyadic_range(grid2d)
        for i, N in enumerate(dyads):
            for Np in dyads[i + 2:]:
                once = lp_project(f, N, "band")
                twice = lp_project(once, Np, "band")
                ratio = np.sqrt(np.sum(twice.values**2) * grid2d.cell_volume) / l2
                assert ratio < 1e-12


class TestFractionalDerivatives:
    def test_s_zero_is_identity(self, grid2d, rng):
        f = random_field(grid2d, rng)
        assert np.array_equal(fractional_derivative(f, 0.0).values, f.values)

    def test_zero_order_weights_are_identity(self, grid2d, rng):
        F = forward_transform(random_field(grid2d, rng)).coefficients
        for m in (None, 0.0, 1.0):
            assert np.array_equal(F * _radial_weights(grid2d, 0.0, m), F)

    def test_laplacian_on_eigenfunction(self, grid2d):
        f = cosine_field(grid2d, (2, 1))
        k_sq = (2.0 * np.pi / grid2d.box_length) ** 2 * 5.0
        out = fractional_derivative(f, 2.0)
        assert np.allclose(out.values, k_sq * f.values, atol=1e-10)

    def test_half_derivative_eigenfunction(self, grid2d):
        f = cosine_field(grid2d, (0, 3))
        k = 2.0 * np.pi / grid2d.box_length * 3.0
        out = fractional_derivative(f, 0.5)
        assert np.allclose(out.values, np.sqrt(k) * f.values, atol=1e-10)

    def test_weights_not_finite_off_the_zero_mode_are_rejected(self, grid2d):
        # |xi|^s is singular only at xi = 0, where the weight is 0; an overflow
        # at a nonzero wavenumber is an error, not a silent inf
        assert _radial_weights(grid2d, -1.0).flat[0] == 0.0
        with pytest.raises(DomainError, match="nonzero grid wavenumber"):
            _radial_weights(grid2d, 1000.0)

    @pytest.mark.parametrize("s", [0.0, -0.5, -1.0])
    def test_zero_mode_is_kept_at_s_zero_and_dropped_below(self, s):
        # a constant carries only the zero mode: s = 0 is the identity (the
        # L^2 norm), every s < 0 annihilates it
        g = GridSpec(2, 16, 8.0)
        f = Field(g, np.full(g.shape, 2.0))
        keep = s == 0.0
        assert sobolev_norm(f, s) == (16.0 if keep else 0.0)
        if keep:
            assert sobolev_norm(f, s) == lebesgue_norm(f, 2.0)
        assert np.array_equal(fractional_derivative(f, s).values,
                              f.values if keep else np.zeros(g.shape))

    def test_half_power_eigenfunction(self, grid2d):
        f = cosine_field(grid2d, (5, 0))
        k = 2.0 * np.pi / grid2d.box_length * 5.0
        out = fractional_derivative(f, 0.5)
        assert np.allclose(out.values, np.sqrt(k) * f.values, atol=1e-10)

    def test_bessel_inverse_eigenfunction(self, grid2d):
        f = cosine_field(grid2d, (2, 2))
        k_sq = (2.0 * np.pi / grid2d.box_length) ** 2 * 8.0
        out = bessel_derivative(f, -1.0, m=1.0)
        assert np.allclose(out.values, (1.0 + k_sq) ** -0.5 * f.values, atol=1e-10)

    def test_composition_on_zero_mean(self, grid2d, rng):
        f = random_field(grid2d, rng)
        f = Field(grid2d, f.values - f.values.mean())
        ab = fractional_derivative(fractional_derivative(f, 0.7), -0.4)
        direct = fractional_derivative(f, 0.3)
        scale = np.max(np.abs(direct.values))
        assert np.max(np.abs(ab.values - direct.values)) < 1e-10 * scale

    def test_negative_order_annihilates_mean(self, grid2d):
        f = Field(grid2d, np.full(grid2d.shape, 5.0))
        out = fractional_derivative(f, -1.0)
        assert np.max(np.abs(out.values)) < 1e-12


class TestBernsteinComparability:
    # Multiplier-vs-band comparability: for band-limited projections the
    # s-th derivative behaves like N^s within a fixed window.
    @pytest.mark.parametrize("s", [-1.0, -0.5, 0.5, 1.0])
    def test_gradient_band_ratio(self, grid2d, rng, s):
        f = random_field(grid2d, rng, band_limit_frac=0.45)
        for N in dyadic_range(grid2d)[1:-1]:
            band = lp_project(f, N, "band")
            l2 = np.sqrt(np.sum(band.values**2))
            if l2 < 1e-10:
                continue
            deriv = fractional_derivative(band, s)
            ratio = np.sqrt(np.sum(deriv.values**2)) / (N**s * l2)
            assert 0.5 <= ratio <= 2.2


def test_spectral_gradient_matches_eigenmode(grid2d):
    f = cosine_field(grid2d, (1, 2))
    k = 2.0 * np.pi / grid2d.box_length * np.array([1.0, 2.0])
    from nlkg.grid import axis_coordinates

    phase = sum(kk * x for kk, x in zip(k, axis_coordinates(grid2d)))
    gx, gy = spectral_gradient(f)
    assert np.allclose(gx.values, -k[0] * np.sin(phase), atol=1e-10)
    assert np.allclose(gy.values, -k[1] * np.sin(phase), atol=1e-10)


def masks(grid: GridSpec, kind: str, rng) -> np.ndarray:
    if kind == "empty":
        return np.zeros(grid.shape, dtype=bool)
    if kind == "full":
        return np.ones(grid.shape, dtype=bool)
    if kind == "random":
        return rng.random(grid.shape) < rng.random()
    # a ball about an apex off the lattice
    apex = rng.random(grid.d) * grid.box_length + 0.5 * grid.spacing * rng.random()
    return radial_distance(grid, apex) < rng.random() * grid.max_fit_radius


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([8, 16, 32]),
       kind=st.sampled_from(["empty", "full", "random", "ball"]), seed=st.integers(0, 2**32 - 1))
def test_masked_gradient_is_the_whole_gradient_there_bit_for_bit(d, n, kind, seed):
    rng = np.random.default_rng(seed)
    grid = GridSpec(d, n, 8.0)
    f = Field(grid, rng.standard_normal(grid.shape))
    inside = masks(grid, kind, rng)
    got = spectral_gradient(f, inside)
    assert len(got) == d
    for part, whole in zip(got, spectral_gradient(f)):
        assert part.shape == (np.count_nonzero(inside),)
        assert part.tobytes() == whole.values[inside].tobytes()


def test_masked_gradient_inverts_only_the_lines_through_the_mask(monkeypatch):
    # d = 3: the first pass runs on every line, the second on the slabs that
    # hold a masked point, the last on the lines that hold one
    grid = GridSpec(3, 16, 8.0)
    inside = np.zeros(grid.shape, dtype=bool)
    inside[2, 3, 4] = inside[2, 5, 4] = inside[9, 3, 0] = True
    lines, real_ifft, real_irfft = [], np.fft.ifft, np.fft.irfft

    def ifft(a, *args, axis=-1, **kwargs):
        lines.append(a.size // a.shape[axis])
        return real_ifft(a, *args, axis=axis, **kwargs)

    def irfft(a, *args, axis=-1, **kwargs):
        lines.append(a.size // a.shape[axis])
        return real_irfft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", ifft)
    monkeypatch.setattr(np.fft, "irfft", irfft)
    f = Field(grid, np.random.default_rng(3).standard_normal(grid.shape))
    spectral_gradient(f, inside)
    half = grid.n // 2 + 1
    # per component: 16 * 9 lines, then 2 slabs of 9, then 3 lines
    assert lines == [3 * 16 * half, 3 * 2 * half, 3 * 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_masked_gradient_checks_the_values_it_computes():
    # the transform of 1e308 overflows: the gradient is NaN everywhere
    grid = GridSpec(2, 16, 8.0)
    f = Field(grid, np.full(grid.shape, 1e308))
    inside = np.zeros(grid.shape, dtype=bool)
    inside[3, 4] = True
    with pytest.raises(CorruptionError, match="Field contains non-finite values"):
        spectral_gradient(f)
    with pytest.raises(CorruptionError, match="Field contains non-finite values"):
        spectral_gradient(f, inside)
