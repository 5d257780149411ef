"""Property tests of the bubble extraction's shared-spectrum scan and of the
even-integer L^q sums, each held against its plain formula: a float pow for
|f|^q, one `_lp_multiplier` per band, and a per-member scan through the
public `lp_project`."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlkg.grid import (Field, GridSpec, _band_multipliers, _forward_array, _inverse_array,
                       _lp_multiplier, _project_into, dyadic_range, lp_project,
                       radial_distance)
from nlkg.norms import critical_exponent, lebesgue_norm, sobolev_norm
from nlkg.profiles import FunctionFamily, _abs_argmax, inverse_gn_extract

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([1, 2, 3])
examples = settings(max_examples=30, deadline=None)


def noise(d: int, seed: int, scale: float = 1.0) -> Field:
    grid = GridSpec(d, {1: 64, 2: 16, 3: 8}[d], 4.0)
    return Field(grid, np.random.default_rng(seed).standard_normal(grid.shape) * scale)


def pow_norm(f: Field, q: float) -> float:
    """The L^q norm as a float pow: (h^d sum |f|^q)^{1/q}."""
    return (float(np.sum(np.abs(f.values) ** q)) * f.grid.cell_volume) ** (1.0 / q)


@examples
@given(dims, seeds, st.sampled_from([2.0, 4.0, 6.0, 8.0]), st.floats(-3.0, 30.0))
def test_even_integer_norm_matches_float_pow(d, seed, q, exponent):
    f = noise(d, seed, 10.0**exponent)
    assert lebesgue_norm(f, q) == pytest.approx(pow_norm(f, q), rel=1e-13)


@examples
@given(dims, seeds, st.sampled_from([2.0, 3.0, 4.5, 7.2]), st.floats(-3.0, 3.0))
def test_q2_and_non_even_norms_are_the_float_pow_bit_for_bit(d, seed, q, exponent):
    f = noise(d, seed, 10.0**exponent)
    assert lebesgue_norm(f, q) == pow_norm(f, q)


@pytest.mark.parametrize("q", [2.0, 4.0, 6.0, 8.0, 3.0])
def test_overflow_gives_inf(q):
    f = noise(2, 0, 1e200)
    with np.errstate(over="ignore"):
        assert lebesgue_norm(f, q) == np.inf


grids = st.builds(GridSpec, d=dims, n=st.sampled_from([8, 16, 32]),
                  box_length=st.floats(2.0, 40.0))


@examples
@given(grids, st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_band_weights_are_the_projection_weights_bit_for_bit(grid, lo, hi):
    for band in (dyadic_range(grid), dyadic_range(grid, lo=lo, hi=hi)):
        weights = list(_band_multipliers(grid, band)) if band.size else []
        assert len(weights) == band.size
        for N, w in zip(band, weights):
            # the weights cover the dense ones' leading columns; past them the
            # dense weights are +0.0, no sign bit set
            dense = _lp_multiplier(grid, N, "band")
            cols = w.shape[-1]
            assert w.tobytes() == np.ascontiguousarray(dense[..., :cols]).tobytes()
            tail = dense[..., cols:]
            assert not tail.any() and not np.signbit(tail).any()


@examples
@given(dims, st.sampled_from([8, 16, 32]), st.floats(2.0, 40.0), seeds)
def test_projection_kernel_is_the_inverse_of_the_product_bit_for_bit(d, n, L, seed):
    grid = GridSpec(d, n, L)
    rng = np.random.default_rng(seed)
    F = _forward_array(rng.standard_normal(grid.shape))
    weights = [_lp_multiplier(grid, N, mode) for N in dyadic_range(grid)
               for mode in ("leq", "gt", "band")]
    for J in (1, n // 2 + 1):  # nonzero on the first J last-axis columns
        w = np.zeros(F.shape)
        w[..., :J] = rng.uniform(0.5, 1.5, size=w[..., :J].shape)
        weights.append(w)
    kept_F = F.copy()
    work, out = np.empty_like(F), np.empty(grid.shape)
    for dense in weights:
        expected = _inverse_array(F * dense, grid.shape).tobytes()
        # weights on the first J columns stand for zeros past them: every J from
        # the last nonzero column on
        live = np.flatnonzero(dense.reshape(-1, dense.shape[-1]).any(axis=0))
        for J in range(live[-1] + 1 if live.size else 1, n // 2 + 2):
            w = np.ascontiguousarray(dense[..., :J])
            kept_w = w.copy()
            assert _project_into(F, w, work, out) is out
            assert out.tobytes() == expected
            assert F.tobytes() == kept_F.tobytes() and w.tobytes() == kept_w.tobytes()
            in_place = F.copy()  # the work array may be the coefficients themselves
            assert _project_into(in_place, w, in_place, np.empty(grid.shape)).tobytes() == expected


def reference_scan(family: FunctionFamily, params) -> tuple:
    """The band N and the centres as the per-member loop picks them: for each
    member the first band of largest L^{p+2} mass, the modal band over
    members (ties to the higher), then the argmax of |P_N f|."""
    g, p, s_c = family.grid, params.p, params.s_c
    p2 = p + 2.0
    eps = min(pow_norm(f, p2) for f in family.members)
    M = np.sqrt(max(sobolev_norm(f, s_c) ** 2 + sobolev_norm(f, 1.0) ** 2
                    for f in family.members))
    K = max((M / eps) ** (p2 / (2.0 * p * (1.0 - s_c))), 1.0 + 1e-9)
    band = dyadic_range(g, lo=K**-p, hi=K**2)
    band = band if band.size else dyadic_range(g)
    picks = []
    for f in family.members:
        best_val, best_N = -1.0, band[0]
        for N in band:
            val = float(np.sum(np.abs(lp_project(f, N).values) ** p2)) * g.cell_volume
            if val > best_val:
                best_val, best_N = val, N
        picks.append(best_N)
    uniq, counts = np.unique(picks, return_counts=True)
    N_sel = float(uniq[counts == counts.max()].max())
    idx = [np.unravel_index(np.argmax(np.abs(lp_project(f, N_sel).values)), g.shape)
           for f in family.members]
    return N_sel, np.array(idx) * g.spacing


@examples
@given(st.sampled_from([(1, 128, 3.0), (2, 32, 4.0), (2, 32, 3.0), (3, 16, 2.0)]), seeds)
def test_scan_picks_the_reference_band_and_centres(case, seed):
    d, n, p = case
    grid = GridSpec(d, n, 8.0)
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(3):
        vals = 0.01 * rng.standard_normal(grid.shape)
        for _ in range(rng.integers(1, 4)):
            center = rng.integers(0, n, size=d) * grid.spacing
            width = rng.uniform(1.0, 3.0) * grid.spacing
            vals += rng.uniform(0.3, 1.5) * np.exp(-radial_distance(grid, center) ** 2
                                                    / (2.0 * width**2))
        members.append(Field(grid, vals))
    family = FunctionFamily(tuple(members))
    params = critical_exponent(d, p)
    res = inverse_gn_extract(family, params)
    N_sel, centers = reference_scan(family, params)
    assert res.stats["N"] == N_sel
    assert np.array_equal(res.centers, centers)


edge_values = st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0, -3.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_values | st.floats(allow_nan=True, allow_infinity=True),
                min_size=1, max_size=24), st.booleans())
@example([1.5, -3.0, 3.0], False)
@example([-3.0, 1.5, 3.0, 0.0], True)
@example([-0.0, 0.0, -0.0, 0.0], True)
@example([-np.inf, 2.0, np.inf], False)
@example([1.0, -np.inf, np.nan, -np.nan, 5.0], False)
def test_peak_rule_is_the_argmax_of_the_modulus(values, square):
    # +-M ties, signed zeros, all-zero input, +-inf and NaN, each also pinned above
    x = np.array(values)
    if square and x.size % 2 == 0:
        x = x.reshape(2, -1)
    assert _abs_argmax(x) == np.argmax(np.abs(x))
